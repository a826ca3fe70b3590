package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diva/internal/sim"
	"diva/spec"
)

// post sends one spec document and decodes the response.
func post(t *testing.T, ts *httptest.Server, doc string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", bytes.NewReader([]byte(doc)))
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

// mustServer builds a server or fails the test.
func mustServer(t *testing.T, o Options) *Server {
	t.Helper()
	s, err := New(o)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func runDoc(seed uint64) string {
	return fmt.Sprintf(`{"rows":4,"cols":4,"strategy":"at4","seed":%d,
		"workload":{"name":"bitonic","keys":8,"check":true}}`, seed)
}

// TestRunEndpoint pins the happy path: a valid spec returns the simulated
// result with a fingerprint.
func TestRunEndpoint(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Options{Workers: 2}).Handler())
	defer ts.Close()

	resp, body := post(t, ts, runDoc(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Workload != "bitonic" || rr.Strategy != "at4" || rr.Topology != "mesh" {
		t.Errorf("identity fields wrong: %+v", rr)
	}
	if rr.ElapsedUS <= 0 || rr.Events == 0 {
		t.Errorf("no simulated outcome: %+v", rr)
	}
	if len(rr.Fingerprint) != 18 || rr.Fingerprint[:2] != "0x" || rr.Fingerprint == "0x0000000000000000" {
		t.Errorf("bad fingerprint %q", rr.Fingerprint)
	}
	if !rr.Verified {
		t.Errorf("check requested but not verified: %+v", rr)
	}
}

// TestConcurrentMatchesSequential is the service determinism contract: 64
// concurrent queries return per-query fingerprints identical to the same
// queries run sequentially.
func TestConcurrentMatchesSequential(t *testing.T) {
	const clients = 64
	ts := httptest.NewServer(mustServer(t, Options{Workers: 8, Queue: clients}).Handler())
	defer ts.Close()

	// Sequential baseline: one response per distinct seed.
	seqFP := make(map[uint64]string)
	for seed := uint64(1); seed <= 8; seed++ {
		resp, body := post(t, ts, runDoc(seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, body)
		}
		var rr RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		seqFP[seed] = rr.Fingerprint
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		seed := uint64(1 + i%8)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json",
				bytes.NewReader([]byte(runDoc(seed))))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var rr RunResponse
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("seed %d: status %d", seed, resp.StatusCode)
				return
			}
			if rr.Fingerprint != seqFP[seed] {
				errs <- fmt.Errorf("seed %d: concurrent fingerprint %s != sequential %s",
					seed, rr.Fingerprint, seqFP[seed])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSaturation429 pins the admission control: with one worker and a
// queue of one, a third concurrent request is shed with 429.
func TestSaturation429(t *testing.T) {
	srv := mustServer(t, Options{Workers: 1, Queue: 1})
	hold := make(chan struct{})
	entered := make(chan struct{}, 8)
	srv.gate = func() {
		entered <- struct{}{}
		<-hold
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type result struct {
		status int
		err    error
	}
	results := make(chan result, 2)
	fire := func() {
		go func() {
			resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json",
				bytes.NewReader([]byte(runDoc(1))))
			if err != nil {
				results <- result{err: err}
				return
			}
			resp.Body.Close()
			results <- result{status: resp.StatusCode}
		}()
	}
	fire()
	<-entered // request 1 holds the only worker
	fire()    // request 2 waits in the queue

	// Wait until request 2 is actually admitted (healthz bypasses the
	// admission gate, so it answers while the worker is held). Then a
	// third request deterministically exceeds Workers+Queue.
	for deadline := time.Now().Add(5 * time.Second); ; {
		resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var hz struct {
			Queued int64 `json:"queued"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if hz.Queued >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("request 2 never queued (queued=%d)", hz.Queued)
		}
		time.Sleep(time.Millisecond)
	}
	third, err := ts.Client().Post(ts.URL+"/v1/run", "application/json",
		bytes.NewReader([]byte(runDoc(1))))
	if err != nil {
		t.Fatal(err)
	}
	if third.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request 3: status %d, want 429", third.StatusCode)
	}
	third.Body.Close()

	close(hold) // release requests 1 and 2
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.status != http.StatusOK {
			t.Errorf("held request finished with status %d", r.status)
		}
	}

	// The shed request must show up in the health counters.
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Status   string `json:"status"`
		Runs     int64  `json:"runs"`
		Rejected int64  `json:"rejected"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Runs != 2 || hz.Rejected != 1 {
		t.Errorf("healthz %+v, want status ok, 2 runs, 1 rejected", hz)
	}
}

// TestValidationErrors pins the 400 surface: unknown fields and invalid
// specs are rejected with the per-field breakdown.
func TestValidationErrors(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Options{}).Handler())
	defer ts.Close()

	resp, body := post(t, ts, `{"workload":{"name":"matmul"},"bogus":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d: %s", resp.StatusCode, body)
	}

	resp, body = post(t, ts, `{"workload":{"name":"matmul"},"topology":"ring"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: status %d: %s", resp.StatusCode, body)
	}
	var er struct {
		Error  string            `json:"error"`
		Fields []spec.FieldError `json:"fields"`
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	fields := map[string]bool{}
	for _, f := range er.Fields {
		fields[f.Field] = true
	}
	if !fields["topology"] || !fields["strategy"] {
		t.Errorf("field breakdown missing topology/strategy: %+v", er.Fields)
	}

	// A machine beyond the processor cap is refused before anything is
	// built: the request is tiny, the machine it names is not.
	resp, body = post(t, ts, `{"workload":{"name":"stencil"},"rows":50000,"cols":50000}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized machine: status %d: %s", resp.StatusCode, body)
	}
	er.Fields = nil
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Fields) != 1 || er.Fields[0].Field != "rows" {
		t.Errorf("oversized machine: fields %+v, want one rows error", er.Fields)
	}

	if resp, body = post(t, ts, `not json`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d: %s", resp.StatusCode, body)
	}

	getResp, err := ts.Client().Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: status %d, want 405", getResp.StatusCode)
	}
}

// TestRegistriesEndpoint pins the introspection surface.
func TestRegistriesEndpoint(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Options{}).Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/registries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reg struct {
		Strategies []spec.Registered `json:"strategies"`
		Topologies []spec.Registered `json:"topologies"`
		Workloads  []spec.Registered `json:"workloads"`
		Trees      []string          `json:"trees"`
		Faults     []spec.Registered `json:"faults"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	if len(reg.Strategies) == 0 || len(reg.Topologies) != 7 ||
		len(reg.Workloads) != 6 || len(reg.Trees) != 6 || len(reg.Faults) != 5 {
		t.Errorf("registries incomplete: %d strategies, %d topologies, %d workloads, %d trees, %d fault fields",
			len(reg.Strategies), len(reg.Topologies), len(reg.Workloads), len(reg.Trees), len(reg.Faults))
	}
	found := false
	for _, tp := range reg.Topologies {
		if strings.HasPrefix(tp.Name, "graph:") {
			found = true
		}
	}
	if !found {
		t.Errorf("registries expose no graph:* topology: %v", reg.Topologies)
	}
}

// TestSnapshotCacheSharing pins that specs differing only in workload
// share one base machine snapshot.
func TestSnapshotCacheSharing(t *testing.T) {
	srv := mustServer(t, Options{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	docs := []string{
		`{"rows":4,"cols":4,"strategy":"at4","seed":1,"workload":{"name":"bitonic","keys":8}}`,
		`{"rows":4,"cols":4,"strategy":"at4","seed":1,"workload":{"name":"matmul","block":16}}`,
		`{"rows":4,"cols":4,"strategy":"fixedhome","seed":1,"workload":{"name":"matmul","block":16}}`,
	}
	for _, doc := range docs {
		if resp, body := post(t, ts, doc); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	if n := srv.snaps.len(); n != 2 {
		t.Errorf("snapshot cache holds %d machines, want 2 (workloads share)", n)
	}
}

// TestSnapshotCacheDropIsByIdentity: a load that fails late must not take
// down a healthy entry. Its own entry may have been LRU-evicted meanwhile
// and the key re-created by a request that succeeded; dropping by key
// would evict that one.
func TestSnapshotCacheDropIsByIdentity(t *testing.T) {
	c := snapCache{cap: 2}
	failed := c.entry("snap:a") // its load is still running …
	c.entry("snap:b")
	c.entry("snap:c") // … when two other handles push it out …
	healthy := c.entry("snap:a")
	if healthy == failed {
		t.Fatal("entry was not evicted; the test needs a second entry under the key")
	}
	c.drop("snap:a", failed) // … and only now it reports its failure.
	if got := c.entry("snap:a"); got != healthy {
		t.Error("dropping the failed entry evicted the healthy one created under the same key")
	}
	c.drop("snap:a", healthy)
	if got := c.entry("snap:a"); got == healthy {
		t.Error("drop left the entry it was given in the cache")
	}
	if n := c.len(); n != 2 {
		t.Errorf("cache holds %d entries, want 2", n)
	}
}

// planCounterRuns counts the runs of TestHealthzPlanCounters in this
// process, so each run builds a machine shape no earlier run built.
var planCounterRuns atomic.Int32

// TestHealthzPlanCounters pins what /v1/healthz says about machine plans:
// the first machine on a topology and tree builds the plan, a second
// machine like it (another seed, so another base snapshot) finds it, and a
// request that forks a cached snapshot does not look a plan up at all. The
// table is process-wide, so the test reads differences, and every run
// (-count) takes a torus of its own, 2×8 for the first, 4×8 for the
// second, 8×8 for the third and so on, with a 4-16-ary tree: machines no
// other test of the package builds.
func TestHealthzPlanCounters(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Options{Workers: 1}).Handler())
	defer ts.Close()
	rows := 1 << planCounterRuns.Add(1)
	doc := func(seed uint64) string {
		return fmt.Sprintf(`{"topology":"torus","rows":%d,"cols":8,"strategy":"at4","tree":"4-16-ary","seed":%d,
			"workload":{"name":"bitonic","keys":8}}`, rows, seed)
	}
	step := func(name, body string, hits, builds int64) {
		t.Helper()
		before := healthz(t, ts)
		if resp, out := post(t, ts, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, out)
		}
		after := healthz(t, ts)
		if h, b := after.PlanHits-before.PlanHits, after.PlanBuilds-before.PlanBuilds; h != hits || b != builds {
			t.Errorf("%s: %d plan hits and %d builds, want %d and %d", name, h, b, hits, builds)
		}
		if after.Plans < 1 || after.PlanBytes <= 0 {
			t.Errorf("%s: healthz reports %d plans holding %d bytes", name, after.Plans, after.PlanBytes)
		}
	}
	step("first machine", doc(1), 0, 1)
	step("fork of the cached snapshot", doc(1), 0, 0)
	step("second machine, same topology and tree", doc(2), 1, 0)
}

// TestHealthzKernelStoreBounded sends a burst of requests of mixed sizes —
// 4×4 to 32×32 machines, DSM and hand-optimized, two at a time — and reads
// what /v1/healthz says about the kernel event storage they leave behind:
// sets are waiting for the next request, their slab requests were counted,
// and the resident bytes stay under the stock's constant ceiling however
// large the largest run was. The process workers they leave behind are
// reported the same way: idle ones within the stock's cap, later requests
// served from it, switches counted. So is the run-transient storage of the
// layers above the kernel: message pools and transaction records wait on
// their shelves within the shelves' ceiling, and later runs adopt them.
func TestHealthzKernelStoreBounded(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Options{Workers: 2}).Handler())
	defer ts.Close()
	docs := []string{
		`{"rows":4,"cols":4,"strategy":"at4","seed":3,"workload":{"name":"matmul","block":16}}`,
		`{"rows":16,"cols":16,"strategy":"fixedhome","seed":3,"workload":{"name":"bitonic","keys":16}}`,
		`{"rows":32,"cols":32,"strategy":"handopt","seed":3,"workload":{"name":"stencil","iters":2,"halo":64}}`,
		`{"rows":8,"cols":8,"strategy":"at4","seed":3,"workload":{"name":"matmul","block":64}}`,
	}
	before := healthz(t, ts)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				doc := docs[(c+i)%len(docs)]
				resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(doc))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d", doc, resp.StatusCode)
				}
			}
		}(c)
	}
	wg.Wait()
	after := healthz(t, ts)
	ceiling := sim.StoreStats().Ceiling
	if after.KernelStoreSets < 1 || after.KernelStoreBytes <= 0 || after.KernelStoreBytes > ceiling {
		t.Errorf("healthz reports %d kernel store sets holding %d bytes; want at least one set and at most %d bytes",
			after.KernelStoreSets, after.KernelStoreBytes, ceiling)
	}
	if after.KernelStoreHits <= before.KernelStoreHits || after.KernelStoreMisses < before.KernelStoreMisses {
		t.Errorf("slab counters went from %d hits / %d misses to %d / %d over 16 runs",
			before.KernelStoreHits, before.KernelStoreMisses, after.KernelStoreHits, after.KernelStoreMisses)
	}
	runCeiling := sim.RunStoreStats().Ceiling
	if after.RunStoreSets < 1 || after.RunStoreBytes <= 0 || after.RunStoreBytes > runCeiling {
		t.Errorf("healthz reports %d run store sets holding %d bytes; want at least one set and at most %d bytes",
			after.RunStoreSets, after.RunStoreBytes, runCeiling)
	}
	if after.RunStoreAdoptions <= before.RunStoreAdoptions || after.RunStoreHits <= before.RunStoreHits ||
		after.KernelStoreAdoptions <= before.KernelStoreAdoptions {
		t.Errorf("run store went from %d adoptions / %d hits to %d / %d, kernel store adoptions from %d to %d, over 16 runs",
			before.RunStoreAdoptions, before.RunStoreHits, after.RunStoreAdoptions, after.RunStoreHits,
			before.KernelStoreAdoptions, after.KernelStoreAdoptions)
	}
	if after.ProcPoolIdle < 1 || after.ProcPoolIdle > sim.ProcStats().Cap ||
		after.ProcPoolHits <= before.ProcPoolHits || after.ProcSwitches <= before.ProcSwitches {
		t.Errorf("process pool went from %d idle / %d hits / %d switches to %d / %d / %d over 16 runs (cap %d)",
			before.ProcPoolIdle, before.ProcPoolHits, before.ProcSwitches,
			after.ProcPoolIdle, after.ProcPoolHits, after.ProcSwitches, sim.ProcStats().Cap)
	}
}
