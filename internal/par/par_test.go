package par

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryItem(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		const n = 100
		var ran [n]atomic.Int32
		errs := ForEach(context.Background(), n, workers, func(i int) error {
			ran[i].Add(1)
			return nil
		})
		if errs != nil {
			t.Fatalf("workers=%d: unexpected errors %v", workers, errs)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	if errs := ForEach(context.Background(), 0, 4, func(int) error { panic("ran") }); errs != nil {
		t.Fatalf("n=0 returned %v", errs)
	}
}

func TestForEachRecordsFnErrors(t *testing.T) {
	boom := errors.New("boom")
	errs := ForEach(context.Background(), 10, 4, func(i int) error {
		if i%3 == 0 {
			return fmt.Errorf("item: %w", boom)
		}
		return nil
	})
	if len(errs) != 4 { // 0, 3, 6, 9
		t.Fatalf("got %d errors, want 4: %v", len(errs), errs)
	}
	for k, e := range errs {
		if e.Index != 3*k {
			t.Errorf("errs[%d].Index = %d, want %d (sorted by index)", k, e.Index, 3*k)
		}
		if !errors.Is(e, boom) {
			t.Errorf("errs[%d] does not unwrap to the fn error: %v", k, e)
		}
	}
	if !errors.Is(FirstErr(errs), boom) {
		t.Errorf("FirstErr = %v", FirstErr(errs))
	}
}

func TestForEachRecoversPanics(t *testing.T) {
	var ok atomic.Int32
	errs := ForEach(context.Background(), 8, 4, func(i int) error {
		if i == 5 {
			panic("injected")
		}
		ok.Add(1)
		return nil
	})
	if ok.Load() != 7 {
		t.Errorf("%d healthy items ran, want 7", ok.Load())
	}
	if len(errs) != 1 || errs[0].Index != 5 {
		t.Fatalf("errs = %v, want exactly item 5", errs)
	}
	if errs[0].Err == nil {
		t.Fatal("panic not converted to an error")
	}
}

// poisonItem panics from a frame of its own, for the stack to name.
func poisonItem(i int) error { panic(fmt.Sprintf("poisoned item %d", i)) }

// TestForEachPanicKeepsStack: a recovered panic reads as before, and the
// error, wrapped once more as a caller would, still carries the value and
// the stack of the frame that panicked.
func TestForEachPanicKeepsStack(t *testing.T) {
	errs := ForEach(context.Background(), 4, 2, func(i int) error {
		if i == 2 {
			return poisonItem(i)
		}
		return nil
	})
	err := fmt.Errorf("caller: %w", FirstErr(errs))
	if got, want := err.Error(), "caller: item 2: panic: poisoned item 2"; got != want {
		t.Errorf("error = %q, want %q", got, want)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("%v: no *PanicError behind it", err)
	}
	if pe.Value != "poisoned item 2" {
		t.Errorf("panic value %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "par.poisonItem") {
		t.Errorf("stack does not name the panicking frame:\n%s", pe.Stack)
	}
}

func TestForEachCancelDrainsRemainingItems(t *testing.T) {
	// Single worker: item 0 cancels the context, so items 1..n-1 must be
	// recorded with the context's error rather than run.
	ctx, cancel := context.WithCancel(context.Background())
	const n = 20
	var ran atomic.Int32
	errs := ForEach(ctx, n, 1, func(i int) error {
		ran.Add(1)
		if i == 0 {
			cancel()
		}
		return nil
	})
	if ran.Load() != 1 {
		t.Errorf("%d items ran after cancellation, want 1", ran.Load())
	}
	if len(errs) != n-1 {
		t.Fatalf("%d items recorded as skipped, want %d", len(errs), n-1)
	}
	for _, e := range errs {
		if !errors.Is(e, context.Canceled) {
			t.Fatalf("skipped item %d recorded %v, want context.Canceled", e.Index, e.Err)
		}
	}
}

func TestForEachCancelAccountsForEveryItem(t *testing.T) {
	// Concurrent workers: regardless of interleaving, ran + skipped = n.
	ctx, cancel := context.WithCancel(context.Background())
	const n = 200
	var ran atomic.Int32
	errs := ForEach(ctx, n, 8, func(i int) error {
		ran.Add(1)
		if i == 17 {
			cancel()
		}
		return nil
	})
	if int(ran.Load())+len(errs) != n {
		t.Fatalf("ran %d + skipped %d != %d", ran.Load(), len(errs), n)
	}
}

func TestFirstErrNil(t *testing.T) {
	if err := FirstErr(nil); err != nil {
		t.Fatalf("FirstErr(nil) = %v", err)
	}
}
