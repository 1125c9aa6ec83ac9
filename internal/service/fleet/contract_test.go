package fleet

// One HTTP contract, three deployments: the same requests against a
// single box, a 1-replica fleet and a 3-replica fleet must answer the
// same status codes and byte-identical bodies once the fields that
// name a deployment are masked.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"clustervp/internal/runner"
	"clustervp/internal/service"
	"clustervp/internal/stats"
)

// heldKernel's jobs block until the test ends: they fill a
// deployment's capacity. Every other job finishes at once.
const heldKernel = "gsmdec"

// contractRun is the deterministic stub simulator of the contract
// deployments.
func contractRun(hold <-chan struct{}) func(int) func(runner.Job) (stats.Results, error) {
	return func(int) func(runner.Job) (stats.Results, error) {
		return func(j runner.Job) (stats.Results, error) {
			if j.Kernel == heldKernel {
				<-hold
			}
			return stats.Results{Benchmark: j.Kernel, Cycles: int64(10 * j.EffectiveScale()), Instructions: 20}, nil
		}
	}
}

// doReq sends one request with an optional body and headers (name,
// value pairs) and returns the response with its whole body.
func doReq(t *testing.T, method, url, body string, headers ...string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(headers); i += 2 {
		req.Header.Set(headers[i], headers[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// maskedKeys name a deployment or a moment, not the contract: job IDs,
// timestamps, trace ids and the replica a job ran on; and, on the
// trace surfaces, the span sets each deployment records by design.
var maskedKeys = map[string]bool{
	"id": true, "jobs": true, "job": true,
	"submitted_at": true, "started_at": true, "finished_at": true,
	"trace_id": true, "replica": true,
	"spans": true, "service": true, "retained": true, "dropped": true,
}

// mask rewrites a JSON value with every masked key replaced (replica
// removed: a single box never sets it). A "job" object — the status on
// an event line — is masked inside, not replaced.
func mask(v any) any {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			switch {
			case k == "replica":
				delete(v, k)
			case k == "job":
				if _, isObj := x.(map[string]any); isObj {
					v[k] = mask(x)
				} else {
					v[k] = "*"
				}
			case maskedKeys[k]:
				v[k] = "*"
			default:
				v[k] = mask(x)
			}
		}
	case []any:
		for i := range v {
			v[i] = mask(v[i])
		}
	}
	return v
}

// canonical masks a JSON body — each line of it, for NDJSON — and
// renders it with sorted keys.
func canonical(t *testing.T, body []byte, ndjson bool) string {
	t.Helper()
	docs := [][]byte{body}
	if ndjson {
		docs = bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	}
	var out []string
	for _, doc := range docs {
		var v any
		dec := json.NewDecoder(bytes.NewReader(doc))
		dec.UseNumber()
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("body is not JSON: %v (%.300s)", err, body)
		}
		data, _ := json.Marshal(mask(v))
		out = append(out, string(data))
	}
	return strings.Join(out, "\n")
}

// deployment is one way to serve the API.
type deployment struct {
	name string
	url  string
}

// contractDeployments boots a single box and 1- and 3-replica fleets,
// all admitting two jobs at a time, over the stub simulator.
func contractDeployments(t *testing.T, hold <-chan struct{}) []deployment {
	run := contractRun(hold)
	box, err := service.New(service.Options{Workers: 1, QueueDepth: 2, Run: run(0)})
	if err != nil {
		t.Fatal(err)
	}
	boxTS := httptest.NewServer(box.Handler())
	t.Cleanup(func() { boxTS.Close(); box.Close() })
	deps := []deployment{{"box", boxTS.URL}}
	for _, n := range []int{1, 3} {
		tf := newTestFleet(t, n, run, func(o *Options) { o.QueueDepth = 2 })
		ts := httptest.NewServer(tf.co.Handler())
		t.Cleanup(ts.Close)
		deps = append(deps, deployment{fmt.Sprintf("fleet-%d", n), ts.URL})
	}
	return deps
}

// waitDone polls a job over HTTP until it is terminal.
func waitDone(t *testing.T, base, id string) {
	t.Helper()
	waitState(t, base, id, service.StateDone, service.StateFailed)
}

// waitState polls a job over HTTP until it is in one of states.
func waitState(t *testing.T, base, id string, states ...string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, body := doReq(t, http.MethodGet, base+"/v1/jobs/"+id, "")
		var st service.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("GET job %s: %v (%s)", id, err, body)
		}
		if slices.Contains(states, st.State) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %v", id, states)
}

// TestHTTPContract runs one request script against every deployment,
// step by step, and compares the answers. A step's path may name the
// job or grid an earlier step created on the same deployment.
func TestHTTPContract(t *testing.T) {
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	deps := contractDeployments(t, hold)
	// Registered after the deployments' cleanups, so it runs first and
	// no Close waits on a held job.
	t.Cleanup(release)

	ndjson := []string{"Accept", service.NDJSONType}
	oversized := `{"kernel":"` + strings.Repeat("x", 1<<20) + `"}`
	type step struct {
		name, method, path, body string
		headers                  []string
		status                   int
		// compare is false where the body is deployment-specific by
		// design (statsz, healthz, metrics, Chrome traces); the status
		// and content type are still compared.
		compare bool
		// last compares only the final NDJSON line: the lines before it
		// race the job's progress.
		last bool
		// code, when set, is the error envelope's code every deployment
		// must answer.
		code string
	}
	steps := []step{
		{name: "healthz", method: "GET", path: "/v1/healthz", status: 200},
		{name: "submit", method: "POST", path: "/v1/jobs", body: submitBody, status: 202, compare: true},
		{name: "status", method: "GET", path: "/v1/jobs/{job}", status: 200, compare: true},
		{name: "events", method: "GET", path: "/v1/jobs/{job}/events", status: 200, compare: true},
		{name: "trace", method: "GET", path: "/v1/jobs/{job}/trace", status: 200, compare: true},
		{name: "trace chrome", method: "GET", path: "/v1/jobs/{job}/trace?format=chrome", status: 200},
		{name: "trace bad format", method: "GET", path: "/v1/jobs/{job}/trace?format=svg", status: 400, compare: true},
		{name: "submit streamed", method: "POST", path: "/v1/jobs", headers: ndjson, status: 202, compare: true, last: true,
			body: `{"machine":{"clusters":"4","vp":"stride","steering":"vpb"},"kernel":"rawcaudio","scale":2}`},
		{name: "grid", method: "POST", path: "/v1/grids", status: 202, compare: true,
			body: `{"machines":[{"clusters":"2"},{"clusters":"1"}],"kernels":["cjpeg"]}`},
		{name: "grid job 0", method: "GET", path: "/v1/jobs/{grid0}", status: 200, compare: true},
		{name: "grid job 1", method: "GET", path: "/v1/jobs/{grid1}", status: 200, compare: true},
		{name: "tracez", method: "GET", path: "/v1/tracez?limit=5", status: 200, compare: true},
		{name: "tracez bad limit", method: "GET", path: "/v1/tracez?limit=-1", status: 400, compare: true},
		{name: "statsz", method: "GET", path: "/v1/statsz", status: 200},
		{name: "metrics", method: "GET", path: "/metrics", status: 200},
		{name: "unknown path", method: "GET", path: "/v1/nope", status: 404, compare: true},
		{name: "wrong method", method: "DELETE", path: "/v1/jobs/x", status: 405, compare: true},
		{name: "unknown job", method: "GET", path: "/v1/jobs/j-99999999", status: 404, compare: true},
		{name: "unknown job events", method: "GET", path: "/v1/jobs/j-99999999/events", status: 404, compare: true},
		{name: "invalid spec", method: "POST", path: "/v1/jobs", body: `{"kernel":"nosuch"}`, status: 400, compare: true},
		{name: "invalid spec streamed", method: "POST", path: "/v1/jobs", body: `{"kernel":"nosuch"}`, headers: ndjson, status: 400, compare: true},
		{name: "unknown field", method: "POST", path: "/v1/jobs", body: `{"machine":{"clusters":"2"},"kernal":"rawcaudio"}`, status: 400, compare: true},
		{name: "second value", method: "POST", path: "/v1/jobs", body: submitBody + ` {"kernel":"cjpeg"}`, status: 400, compare: true},
		{name: "trailing garbage", method: "POST", path: "/v1/grids", status: 400, compare: true,
			body: `{"machines":[{"clusters":"2"}],"kernels":["cjpeg"]} x`},
		{name: "rename too deep", method: "POST", path: "/v1/jobs", status: 400, compare: true, code: service.CodeInvalidSpec,
			body: `{"machine":{"clusters":"2","rename_cycles":1099511627776},"kernel":"rawcaudio"}`},
		{name: "uppercase digest", method: "POST", path: "/v1/jobs", status: 400, compare: true, code: service.CodeInvalidSpec,
			body: `{"machine":{"clusters":"2"},"trace_digest":"sha256:` + strings.Repeat("AB", 32) + `"}`},
		{name: "empty grid", method: "POST", path: "/v1/grids", body: `{"machines":[],"kernels":["cjpeg"]}`, status: 400, compare: true},
		{name: "oversized body", method: "POST", path: "/v1/jobs", body: oversized, status: 413, compare: true},
		{name: "trace upload", method: "POST", path: "/v1/traces", body: "CVT", status: 501, compare: true},
		{name: "queue full", method: "POST", path: "/v1/jobs", body: submitBody, status: 503, compare: true},
		{name: "queue full streamed", method: "POST", path: "/v1/jobs", body: submitBody, headers: ndjson, status: 503, compare: true},
		{name: "grid over capacity", method: "POST", path: "/v1/grids", status: 503, compare: true,
			body: `{"machines":[{"clusters":"2"}],"kernels":["rawcaudio","cjpeg"]}`},
	}

	// refs holds, per deployment, the IDs earlier steps created.
	refs := make([]map[string]string, len(deps))
	for i := range refs {
		refs[i] = map[string]string{}
	}
	for _, st := range steps {
		if st.status == http.StatusServiceUnavailable && refs[0]["full"] == "" {
			for i, d := range deps {
				fill(t, d.url)
				refs[i]["full"] = "yes"
			}
		}
		t.Run(st.name, func(t *testing.T) {
			var want string
			for i, d := range deps {
				path := st.path
				for k, v := range refs[i] {
					path = strings.ReplaceAll(path, "{"+k+"}", v)
				}
				resp, body := doReq(t, st.method, d.url+path, st.body, st.headers...)
				if resp.StatusCode != st.status {
					t.Fatalf("%s: %s %s = %d, want %d (%.300s)", d.name, st.method, path, resp.StatusCode, st.status, body)
				}
				if ct := resp.Header.Get("Content-Type"); ct == "" || (resp.StatusCode >= 400 && ct != "application/json") {
					t.Errorf("%s: content type %q", d.name, ct)
				}
				if retry := resp.Header.Get("Retry-After"); (retry != "") != (st.status == http.StatusServiceUnavailable) {
					t.Errorf("%s: Retry-After = %q on a %d", d.name, retry, st.status)
				}
				if st.code != "" {
					var env struct{ Error struct{ Code string } }
					if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != st.code {
						t.Errorf("%s: error code %q (%v), want %q", d.name, env.Error.Code, err, st.code)
					}
				}
				record(t, refs[i], st.name, d.url, body)
				if !st.compare {
					continue
				}
				if st.last {
					lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
					body = lines[len(lines)-1]
				}
				got := canonical(t, body, resp.Header.Get("Content-Type") == service.NDJSONType)
				if i == 0 {
					want = got
				} else if got != want {
					t.Errorf("%s answers differently from %s:\n %s: %s\n %s: %s", d.name, deps[0].name, d.name, got, deps[0].name, want)
				}
			}
		})
	}
}

// record keeps the IDs a submit created and waits for those jobs, so
// later steps read them finished.
func record(t *testing.T, refs map[string]string, step, base string, body []byte) {
	t.Helper()
	switch step {
	case "submit":
		var st service.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		refs["job"] = st.ID
		waitDone(t, base, st.ID)
	case "submit streamed":
		var first service.Event
		if err := json.Unmarshal(bytes.SplitN(body, []byte("\n"), 2)[0], &first); err != nil || first.Job == nil {
			t.Fatalf("streamed submit's first line names no job: %.300s", body)
		}
	case "grid":
		var g struct{ Jobs []string }
		if err := json.Unmarshal(body, &g); err != nil || len(g.Jobs) != 2 {
			t.Fatalf("grid answer %s: %v", body, err)
		}
		for i, id := range g.Jobs {
			refs[fmt.Sprintf("grid%d", i)] = id
			waitDone(t, base, id)
		}
	}
}

// fill submits held jobs until the deployment answers 503: its whole
// capacity is then held. It waits for the first held job to run: a
// single box admits by queued jobs alone, so a job its idle worker has
// yet to take would free a queue slot after the 503.
func fill(t *testing.T, base string) {
	t.Helper()
	for scale := 1; scale <= 8; scale++ {
		body := fmt.Sprintf(`{"machine":{"clusters":"2"},"kernel":%q,"scale":%d}`, heldKernel, scale)
		resp, data := doReq(t, http.MethodPost, base+"/v1/jobs", body)
		switch resp.StatusCode {
		case http.StatusAccepted:
			if scale == 1 {
				var st service.JobStatus
				if err := json.Unmarshal(data, &st); err != nil {
					t.Fatal(err)
				}
				waitState(t, base, st.ID, service.StateRunning)
			}
			continue
		case http.StatusServiceUnavailable:
			return
		default:
			t.Fatalf("filling %s: %d %s", base, resp.StatusCode, data)
		}
	}
	t.Fatalf("%s took 8 held jobs without filling", base)
}
