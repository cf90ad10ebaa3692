package server

import (
	"context"
	"net/http"
	"testing"
	"time"

	"abacus/internal/dnn"
	"abacus/internal/realtime"
	"abacus/internal/trace"
)

// TestLossyClientsConserveCounts drives a live unpaced gateway through a
// transport that drops a quarter of the inference traffic — half before the
// gateway sees the request, half after it has answered — with retries
// recovering the losses. The assertions are conservation laws: every client
// request ends in exactly one outcome, every admitted query finishes, and
// after-send drops surface as suppressed duplicates rather than double
// executions.
func TestLossyClientsConserveCounts(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	arrivals := trace.NewGenerator(models, 29).Poisson(40, 2500)

	c := startGateway(t, Config{Models: models, Speedup: realtime.Unpaced})
	lossy := NewLossyTransport(nil, 0.25, 29)
	lc := NewClient(c.base, &http.Client{Transport: lossy})

	res, err := RunLoad(context.Background(), LoadConfig{
		Client:      lc,
		Models:      models,
		Arrivals:    arrivals,
		Closed:      true,
		Concurrency: 8,
		Requests:    len(arrivals),
		Retry:       &RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Total
	if tot.Sent != len(arrivals) {
		t.Fatalf("sent %d, want %d", tot.Sent, len(arrivals))
	}
	if lossy.DroppedBeforeSend()+lossy.DroppedAfterSend() == 0 {
		t.Fatal("lossy transport dropped nothing — fault path untested")
	}
	if lossy.DroppedBeforeSend() == 0 || lossy.DroppedAfterSend() == 0 {
		t.Errorf("want drops on both legs, got before=%d after=%d",
			lossy.DroppedBeforeSend(), lossy.DroppedAfterSend())
	}
	if tot.Retries == 0 {
		t.Error("no retries despite injected drops")
	}

	// Client-side conservation: every request has exactly one final outcome.
	// Errors are legal here — a request whose every attempt was dropped ends
	// as a transport error — but each still counts exactly once.
	accounted := tot.Completed + tot.Dropped + tot.RejectedDeadline +
		tot.RejectedQueue + tot.RejectedDegraded + tot.Unavailable + tot.Errors
	if accounted != tot.Sent {
		t.Fatalf("outcomes %d != sent %d (%+v)", accounted, tot.Sent, tot)
	}

	// Gateway-side conservation: everything admitted finishes, and the client
	// can never report more completions than the gateway executed.
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var acc, fin int64
	for _, s := range st.Services {
		acc += s.Accepted
		fin += s.Completed + s.Dropped
	}
	if fin != acc {
		t.Errorf("gateway accepted %d but finished %d", acc, fin)
	}
	if int64(tot.Completed) > acc {
		t.Errorf("client completed %d > gateway accepted %d", tot.Completed, acc)
	}

	// After-send drops force a retry of an already-executed query; the
	// idempotency cache must have answered at least one of those instead of
	// re-running it.
	if st.Faults.RetriesSeen == 0 {
		t.Error("gateway saw no retry attempts")
	}
	if st.Faults.DuplicatesSuppressed == 0 {
		t.Error("no duplicates suppressed despite after-send drops")
	}
}
