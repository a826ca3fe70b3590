// Operational-hardening tests: request deadlines surface as 504 with
// progress diagnostics, panics in a run answer 500 and leave the pool
// healthy, oversized bodies are shed before buffering, graceful drain
// rejects new runs while finishing in-flight ones without leaking
// simulation goroutines, and on-disk snapshots round-trip through a
// server restart with identical fingerprints.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func healthz(t *testing.T, ts *httptest.Server) healthzResponse {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	return hz
}

// TestOversizedBody413 pins the request-size guard: a spec document past
// the 1 MiB bound is rejected without buffering it.
func TestOversizedBody413(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Options{}).Handler())
	defer ts.Close()
	huge := `{"filler":"` + strings.Repeat("x", maxSpecBytes) + `"}`
	resp, body := post(t, ts, huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %.200s", resp.StatusCode, body)
	}
}

// TestTrailingData400 pins that a request body is one spec document: data
// after a valid spec is a 400, not a run of the first document, while a
// valid spec padded past the size bound is still a 413.
func TestTrailingData400(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Options{}).Handler())
	defer ts.Close()
	doc := `{"rows":4,"cols":4,"strategy":"at4","workload":{"name":"bitonic","keys":8}}`
	resp, body := post(t, ts, doc+` {"rows":"garbage"} trailing junk`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "trailing data") {
		t.Errorf("trailing document: status %d: %s", resp.StatusCode, body)
	}
	resp, body = post(t, ts, doc+strings.Repeat(" ", maxSpecBytes))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized padding: status %d: %.200s", resp.StatusCode, body)
	}
	resp, body = post(t, ts, doc+"\n")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("trailing newline: status %d: %s", resp.StatusCode, body)
	}
}

// TestDeadline504 pins the deadline surface: a run whose timeout_ms
// expires is canceled at a kernel checkpoint and answered with 504 plus
// progress diagnostics. The gate outlasts the 10ms deadline while holding
// the worker slot, so the expiry is deterministic.
func TestDeadline504(t *testing.T) {
	srv := mustServer(t, Options{Workers: 1})
	srv.gate = func() { time.Sleep(50 * time.Millisecond) }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	doc := `{"rows":4,"cols":4,"strategy":"at4","timeout_ms":10,
		"workload":{"name":"bitonic","keys":8}}`
	resp, body := post(t, ts, doc)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "deadline") {
		t.Errorf("504 body lacks a deadline message: %+v", er)
	}
	if hz := healthz(t, ts); hz.Timeouts != 1 {
		t.Errorf("healthz timeouts = %d, want 1", hz.Timeouts)
	}
}

// TestPanic500 pins panic isolation: a run that panics answers 500, the
// counter increments, and the worker pool stays healthy — the next
// request succeeds.
func TestPanic500(t *testing.T) {
	srv := mustServer(t, Options{Workers: 1})
	var first atomic.Bool
	first.Store(true)
	srv.gate = func() {
		if first.CompareAndSwap(true, false) {
			panic("injected run fault")
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := post(t, ts, runDoc(1))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking run: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("panicked")) {
		t.Errorf("500 body does not mention the panic: %s", body)
	}
	resp, body = post(t, ts, runDoc(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run after panic: status %d: %s (pool unhealthy)", resp.StatusCode, body)
	}
	hz := healthz(t, ts)
	if hz.Panics != 1 || hz.Runs != 1 || hz.Inflight != 0 {
		t.Errorf("healthz %+v, want 1 panic, 1 run, 0 inflight", hz)
	}
}

// simGoroutines counts live goroutines with a simulation-kernel frame.
func simGoroutines() int {
	buf := make([]byte, 1<<22)
	n := runtime.Stack(buf, true)
	count := 0
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "diva/internal/sim.") {
			count++
		}
	}
	return count
}

// TestDrain pins graceful shutdown: once Drain starts, new runs get 503
// with Retry-After while in-flight runs finish with 200; after Drain
// returns, no simulation goroutine survives.
func TestDrain(t *testing.T) {
	srv := mustServer(t, Options{Workers: 2})
	hold := make(chan struct{})
	entered := make(chan struct{}, 4)
	srv.gate = func() {
		entered <- struct{}{}
		<-hold
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json",
				bytes.NewReader([]byte(runDoc(1))))
			if err != nil {
				results <- -1
				return
			}
			resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	<-entered
	<-entered // both workers held in-flight

	drained := make(chan struct{})
	go func() {
		srv.Drain(10 * time.Second)
		close(drained)
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if healthz(t, ts).Status == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never reported draining")
		}
		time.Sleep(time.Millisecond)
	}

	// Admission is closed: a new run is rejected with 503 + Retry-After.
	resp, body := post(t, ts, runDoc(2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("run during drain: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain 503 lacks Retry-After")
	}

	// In-flight runs are not dropped: both finish with 200.
	close(hold)
	for i := 0; i < 2; i++ {
		if status := <-results; status != http.StatusOK {
			t.Errorf("in-flight run finished with status %d during drain", status)
		}
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after in-flight runs finished")
	}

	// No simulation goroutine survives the drain (forked machines are torn
	// down when their runs return; poll briefly for the stragglers).
	deadline := time.Now().Add(5 * time.Second)
	for simGoroutines() > 0 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<22)
			n := runtime.Stack(buf, true)
			t.Fatalf("simulation goroutines leaked after drain:\n%s", buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSnapshotRestartRecovery pins the store round trip at the HTTP
// surface: a snapshot warmed through one Server instance answers
// fingerprint-identical runs through a second instance on the same
// directory — the restart story.
func TestSnapshotRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	warmDoc := `{"rows":4,"cols":4,"strategy":"at4","seed":1,
		"workload":{"name":"matmul","block":16,"seed":3}}`
	queryDoc := `{"workload":{"name":"bitonic","keys":8,"check":true,"seed":5}}`

	srv1 := mustServer(t, Options{Workers: 2, SnapshotDir: dir})
	ts1 := httptest.NewServer(srv1.Handler())
	defer ts1.Close()

	resp, body := ts1post(t, ts1, "/v1/snapshots", warmDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create snapshot: status %d: %s", resp.StatusCode, body)
	}
	var sr SnapshotResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Handle == "" || sr.Restored {
		t.Fatalf("bad snapshot response: %+v", sr)
	}

	// Re-posting the same warm-up is idempotent: same handle, no re-run.
	resp, body = ts1post(t, ts1, "/v1/snapshots", warmDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-create snapshot: status %d: %s", resp.StatusCode, body)
	}
	var sr2 SnapshotResponse
	if err := json.Unmarshal(body, &sr2); err != nil {
		t.Fatal(err)
	}
	if sr2.Handle != sr.Handle {
		t.Fatalf("handles differ across idempotent posts: %q vs %q", sr2.Handle, sr.Handle)
	}

	run := func(ts *httptest.Server, label string) RunResponse {
		t.Helper()
		resp, body := ts1post(t, ts, "/v1/run?snapshot="+sr.Handle, queryDoc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", label, resp.StatusCode, body)
		}
		var rr RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		return rr
	}
	base := run(ts1, "run on warming server")
	if !base.Verified || base.Fingerprint == "0x0000000000000000" {
		t.Fatalf("bad baseline run: %+v", base)
	}

	// A second server on the same directory — a restarted process — serves
	// the same handle with the bit-identical fingerprint.
	srv2 := mustServer(t, Options{Workers: 2, SnapshotDir: dir})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if got := run(ts2, "run after restart"); got.Fingerprint != base.Fingerprint ||
		got.Events != base.Events || got.ElapsedUS != base.ElapsedUS {
		t.Errorf("restart run diverged:\n got: %+v\nbase: %+v", got, base)
	}

	// The restore is visible in the health counters: the first run on the
	// restarted server loaded the file, a second one finds it resident.
	if hz := healthz(t, ts2); hz.SnapshotLoads != 1 || hz.SnapshotLoadUS <= 0 || hz.SnapshotHits != 0 {
		t.Errorf("healthz after the first restored run: %+v, want 1 load with its time and no hit", hz)
	}
	run(ts2, "second run after restart")
	if hz := healthz(t, ts2); hz.SnapshotLoads != 1 || hz.SnapshotHits != 1 {
		t.Errorf("healthz after the second restored run: %+v, want still 1 load, and 1 hit", hz)
	}

	// The restarted server lists the stored snapshot.
	resp2, err := ts2.Client().Get(ts2.URL + "/v1/snapshots")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var listing struct {
		Snapshots []struct {
			Handle string `json:"handle"`
		} `json:"snapshots"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Snapshots) != 1 || listing.Snapshots[0].Handle != sr.Handle {
		t.Errorf("listing = %+v, want exactly [%s]", listing.Snapshots, sr.Handle)
	}

	// Unknown handles are 404; without a store the feature is 501.
	if resp, _ := ts1post(t, ts1, "/v1/run?snapshot=0123456789abcdef", queryDoc); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown handle: status %d, want 404", resp.StatusCode)
	}
	bare := httptest.NewServer(mustServer(t, Options{}).Handler())
	defer bare.Close()
	if resp, _ := ts1post(t, bare, "/v1/run?snapshot="+sr.Handle, queryDoc); resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("snapshot run without store: status %d, want 501", resp.StatusCode)
	}
	if resp, _ := ts1post(t, bare, "/v1/snapshots", warmDoc); resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("snapshot create without store: status %d, want 501", resp.StatusCode)
	}
}

// ts1post posts a document to an arbitrary path.
func ts1post(t *testing.T, ts *httptest.Server, path, doc string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader([]byte(doc)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestRetryAfterOn429 pins the queue-depth Retry-After on shed requests.
func TestRetryAfterOn429(t *testing.T) {
	srv := mustServer(t, Options{Workers: 1, Queue: 1})
	hold := make(chan struct{})
	entered := make(chan struct{}, 4)
	srv.gate = func() {
		entered <- struct{}{}
		<-hold
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(hold)

	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json",
				bytes.NewReader([]byte(runDoc(1))))
			if err == nil {
				resp.Body.Close()
			}
			done <- struct{}{}
		}()
	}
	<-entered // worker held
	for deadline := time.Now().Add(5 * time.Second); ; {
		if healthz(t, ts).Queued >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	resp, body := post(t, ts, runDoc(1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 lacks Retry-After")
	}
	var secs int
	if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want a positive integer of seconds", ra)
	}
}
