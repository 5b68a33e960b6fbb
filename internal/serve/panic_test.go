package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hybriddtm/internal/dtm"
	"hybriddtm/internal/experiments"
	"hybriddtm/internal/obs"
)

// bomb is a policy that panics on its first decision.
type bomb struct{ dtm.Policy }

func (bomb) Sample(float64, float64) dtm.Decision { panic("bomb went off") }

// TestPanickingJobFailsAndServerKeepsServing: a job whose policy panics
// ends "failed" with the contained panic as its error, is counted in
// pool.job_panics, and the same worker goes on to complete the next job.
func TestPanickingJobFailsAndServerKeepsServing(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := New(Config{Workers: 1, CacheDir: t.TempDir(), Metrics: reg,
		policy: func(f experiments.PolicyFactory) experiments.PolicyFactory {
			if f.Name != "fg" {
				return f
			}
			return experiments.PolicyFactory{Name: f.Name, New: func() (dtm.Policy, error) {
				p, err := f.New()
				return bomb{p}, err
			}}
		}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	finish := func(body string) (st statusResponse) {
		t.Helper()
		sub, code := submitJSON(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: HTTP %d", body, code)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv.WaitJob(ctx, sub.ID); err != nil {
			t.Fatalf("WaitJob %s: %v", sub.ID, err)
		}
		_, data := do(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.ID, "")
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("status %s: %v", sub.ID, err)
		}
		return st
	}

	st := finish(`{"benchmark": "gzip", "policy": "fg", "instructions": 1000000, "scale": "smoke"}`)
	if st.State != StateFailed || !strings.Contains(st.Error, "job gzip/fg panicked: bomb went off") {
		t.Errorf("panicking job: state %q error %q; want failed with the contained panic", st.State, st.Error)
	}
	if st := finish(`{"benchmark": "gzip", "policy": "dvs", "instructions": 100000, "scale": "smoke"}`); st.State != StateDone {
		t.Errorf("job after the panic: state %q error %q; want done", st.State, st.Error)
	}
	if n := reg.Counter(obs.MetricPoolJobPanics).Value(); n != 1 {
		t.Errorf("pool.job_panics = %d, want 1", n)
	}
}
