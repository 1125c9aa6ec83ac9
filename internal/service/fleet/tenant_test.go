package fleet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"clustervp/internal/service"
)

// TestMultiTenantCoordinator: a coordinator given tenants authenticates
// and meters its callers exactly like a multi-tenant single box — keys
// required except on the open endpoints, per-tenant quotas at
// admission, and another tenant's jobs indistinguishable from missing
// ones.
func TestMultiTenantCoordinator(t *testing.T) {
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	tf := newTestFleet(t, 1, contractRun(hold), nil)
	t.Cleanup(release)
	const aliceKey, bobKey = "alice-key-0001", "bob-key-0001"
	co, err := New(Options{
		Replicas:      []string{tf.servers[0].URL},
		ProbeInterval: 25 * time.Millisecond,
		Retry:         clientRetryFast(),
	}, service.Tenant{Name: "alice", Key: aliceKey, MaxInFlight: 1}, service.Tenant{Name: "bob", Key: bobKey})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(func() { ts.Close(); co.Close() })
	t.Cleanup(release)

	wantCode := func(resp *http.Response, body []byte, status int, code string) {
		t.Helper()
		if resp.StatusCode != status {
			t.Fatalf("%s %s = %d, want %d (%s)", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, status, body)
		}
		var env service.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != code {
			t.Errorf("%s %s envelope = %s, want code %s", resp.Request.Method, resp.Request.URL.Path, body, code)
		}
	}
	auth := func(key string) []string { return []string{"Authorization", "Bearer " + key} }
	held := `{"machine":{"clusters":"2"},"kernel":"` + heldKernel + `"}`

	resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/jobs", held)
	wantCode(resp, body, http.StatusUnauthorized, service.CodeUnauthorized)
	resp, body = doReq(t, http.MethodGet, ts.URL+"/v1/statsz", "", auth("wrong-key-0001")...)
	wantCode(resp, body, http.StatusUnauthorized, service.CodeUnauthorized)

	resp, body = doReq(t, http.MethodPost, ts.URL+"/v1/jobs", held, auth(aliceKey)...)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("alice's first job = %d %s", resp.StatusCode, body)
	}
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "alice" {
		t.Errorf("job tenant = %q, want alice", st.Tenant)
	}
	resp, body = doReq(t, http.MethodPost, ts.URL+"/v1/jobs", submitBody, auth(aliceKey)...)
	wantCode(resp, body, http.StatusTooManyRequests, service.CodeQuotaExceeded)
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Bob is not metered by alice's quota.
	if resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/jobs", submitBody, auth(bobKey)...); resp.StatusCode != http.StatusAccepted {
		t.Errorf("bob's job = %d %s", resp.StatusCode, body)
	}

	for _, path := range []string{"", "/events", "/trace"} {
		resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+path, "", auth(bobKey)...)
		wantCode(resp, body, http.StatusNotFound, service.CodeNotFound)
	}
	if resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, "", auth(aliceKey)...); resp.StatusCode != http.StatusOK {
		t.Errorf("alice reading her own job = %d %s", resp.StatusCode, body)
	}
	for _, path := range []string{"/v1/healthz", "/metrics"} {
		if resp, body := doReq(t, http.MethodGet, ts.URL+path, ""); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s without a key = %d %s", path, resp.StatusCode, body)
		}
	}
}
