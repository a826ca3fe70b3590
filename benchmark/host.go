package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// record is a results file: every workload's numbers and the host they
// were measured on. Host time means nothing without the host.
type record struct {
	Host      host                       `json:"host"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	WallS     float64           `json:"wall_s"` // of the untraced timed phase
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
}

type host struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	// SnapshotFS is the filesystem warm-state's snapshot files live on.
	SnapshotFS string `json:"snapshot_fs"`
}

func hostRecord() host {
	h := host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", GitCommit: "unknown", SnapshotFS: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range bytes.Split(data, []byte("\n")) {
			if name, value, ok := bytes.Cut(line, []byte(":")); ok && string(bytes.TrimSpace(name)) == "model name" {
				h.CPUModel = string(bytes.TrimSpace(value))
				break
			}
		}
	}
	// A checkout that is not a git repository keeps "unknown".
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	if err := os.MkdirAll(buildDir, 0o755); err == nil {
		var st syscall.Statfs_t
		if syscall.Statfs(buildDir, &st) == nil {
			h.SnapshotFS = fsName(int64(st.Type))
		}
	}
	return h
}

// fsName names the filesystem magic numbers a sandbox is likely to show.
func fsName(magic int64) string {
	switch magic {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", magic)
}

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string                     `json:"command"`
	Paths      []string                     `json:"paths"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// agreeFiles compares two results files of the same commit on the same
// host: every end-to-end metric of every workload must differ by no more
// than its bound in the BENCHMARK.json at contractPath, no op may have
// failed, and the hosts must match. It returns an error naming every
// breach.
func agreeFiles(pathA, pathB, contractPath string) error {
	var a, b record
	var bj contract
	for path, v := range map[string]any{pathA: &a, pathB: &b, contractPath: &bj} {
		if err := readJSON(path, v); err != nil {
			return err
		}
	}
	var breaches []string
	ha, hb := a.Host, b.Host
	ha.GitCommit, hb.GitCommit = "", "" // -agree also serves parent against change
	if ha != hb {
		breaches = append(breaches, fmt.Sprintf("host mismatch: %+v vs %+v", a.Host, b.Host))
	}
	for _, w := range bj.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			breaches = append(breaches, w.Name+": missing from a results file")
			continue
		}
		if !wa.Correct || !wb.Correct || wa.Failed+wb.Failed > 0 {
			breaches = append(breaches, fmt.Sprintf("%s: failed ops %d and %d, correct %v and %v", w.Name, wa.Failed, wb.Failed, wa.Correct, wb.Correct))
		}
		for _, m := range bj.EndToEnd {
			va, vb := wa.EndToEnd[m.Name].Value, wb.EndToEnd[m.Name].Value
			diff := (vb - va) / va
			if m.Better == "higher" {
				diff = -diff
			}
			verdict := "ok"
			if diff > m.Bound || -diff > m.Bound {
				verdict = "BREACH"
				breaches = append(breaches, fmt.Sprintf("%s %s: %g vs %g differ by %.2f%%, bound %.2f%%", w.Name, m.Name, va, vb, 100*diff, 100*m.Bound))
			}
			fmt.Printf("%-16s %-22s %16.4f %16.4f %+7.2f%% (bound %.2f%%) %s\n", w.Name, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
	}
	if len(breaches) > 0 {
		return fmt.Errorf("%d breaches:\n  %s", len(breaches), strings.Join(breaches, "\n  "))
	}
	return nil
}
