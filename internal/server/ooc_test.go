package server

import (
	"io"
	"net/http"
	"testing"

	"github.com/tea-graph/tea/internal/fault"
	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/ooc"
)

// A -ooc server whose device fails every read must not answer /walk with
// 200 and walks truncated to their start vertex: the engine stops on the
// sampler's sticky error and the handler maps it to a 5xx.
func TestOOCDeadDeviceWalkIsNot200(t *testing.T) {
	ts, fi, _ := newOOCServer(t, fault.New(7, fault.Fault{Op: fault.Read}),
		Config{Metrics: metrics.NewRegistry()})
	resp, err := http.Get(ts.URL + "/walk?from=0&count=8&length=30&seed=3")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if fi.Injected() == 0 {
		t.Fatal("fault injector fired no faults; the walk never read the device")
	}
	if resp.StatusCode < 500 {
		t.Fatalf("/walk on a dead device answered %d, want 5xx", resp.StatusCode)
	}
}

// Read retries are billed to the request that caused them: cost_detail
// reports exactly the retries DiskPAT counted during the request.
func TestOOCCostReportsReadRetries(t *testing.T) {
	ts, fi, dp := newOOCServer(t, fault.New(7, fault.Fault{Op: fault.Read, Rate: 0.3, Err: ooc.ErrTransient}),
		Config{Metrics: metrics.NewRegistry()})
	dp.SetRetryPolicy(ooc.RetryPolicy{MaxRetries: 20})
	before := dp.Retries()
	var out struct {
		CostDetail struct {
			ReadRetries int64 `json:"read_retries"`
		} `json:"cost_detail"`
	}
	getJSON(t, ts.URL+"/walk?from=0&count=8&length=30&seed=3&cost=1", http.StatusOK, &out)
	retries := dp.Retries() - before
	if fi.Injected() == 0 || retries == 0 {
		t.Fatalf("injected %d faults, %d retries; the request exercised no retry", fi.Injected(), retries)
	}
	if out.CostDetail.ReadRetries != retries {
		t.Fatalf("cost_detail.read_retries = %d, want the request's %d DiskPAT retries", out.CostDetail.ReadRetries, retries)
	}
}
