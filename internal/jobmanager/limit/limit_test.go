package limit

import (
	"math"
	"strings"
	"testing"
	"time"
)

var t0 = time.Unix(1_700_000_000, 0)

func at(d time.Duration) time.Time { return t0.Add(d) }

// allStrategies is every strategy New knows.
var allStrategies = []string{"token_bucket", "gcra"}

// TestRegistryStrategies: New builds each strategy under its own name,
// and an unknown name fails naming both.
func TestRegistryStrategies(t *testing.T) {
	_, err := New("leaky_bucket", Config{Rate: 1})
	if err == nil || !strings.Contains(err.Error(), "token_bucket, gcra") {
		t.Fatalf("unknown strategy: err = %v, want one naming token_bucket and gcra", err)
	}
	for _, n := range allStrategies {
		l, err := New(n, Config{Rate: 10, Burst: 5})
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if l.Name() != n {
			t.Fatalf("Name() = %q, want %q", l.Name(), n)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{{Rate: 0}, {Rate: -1}, {Rate: math.Inf(1)}, {Rate: math.NaN()}, {Rate: 1, Burst: -2}} {
		for _, name := range allStrategies {
			if _, err := New(name, bad); err == nil {
				t.Fatalf("%s accepted bad config %+v", name, bad)
			}
		}
	}
}

// Every strategy must satisfy the same admission contract; run the
// shared battery over each one.
func eachStrategy(t *testing.T, cfg Config, fn func(t *testing.T, l Limiter)) {
	t.Helper()
	for _, name := range allStrategies {
		l, err := New(name, cfg)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		t.Run(name, func(t *testing.T) { fn(t, l) })
	}
}

func TestBurstThenThrottle(t *testing.T) {
	eachStrategy(t, Config{Rate: 10, Burst: 5}, func(t *testing.T, l Limiter) {
		// The first Burst units admit immediately.
		for i := 0; i < 5; i++ {
			w, ok := l.Reserve(t0, 1, -1)
			if !ok || w != 0 {
				t.Fatalf("burst unit %d: wait=%v ok=%v, want immediate", i, w, ok)
			}
		}
		// The next unit must wait about one emission interval (100ms).
		w, ok := l.Reserve(t0, 1, -1)
		if !ok {
			t.Fatal("unbounded-wait reserve refused")
		}
		if w < 50*time.Millisecond || w > 150*time.Millisecond {
			t.Fatalf("post-burst wait = %v, want ~100ms", w)
		}
	})
}

func TestShedDoesNotCharge(t *testing.T) {
	eachStrategy(t, Config{Rate: 10, Burst: 2}, func(t *testing.T, l Limiter) {
		if _, ok := l.Reserve(t0, 2, 0); !ok {
			t.Fatal("within-burst reserve refused")
		}
		// Bucket empty: zero-wait admission must now refuse...
		if _, ok := l.Reserve(t0, 1, 0); ok {
			t.Fatal("empty limiter admitted with maxWait=0")
		}
		// ...and refusal must not have charged: after one emission
		// interval a single unit admits immediately again.
		if w, ok := l.Reserve(at(100*time.Millisecond), 1, 0); !ok || w != 0 {
			t.Fatalf("recovered unit: wait=%v ok=%v, want immediate", w, ok)
		}
	})
}

func TestOversizeRequestRefused(t *testing.T) {
	eachStrategy(t, Config{Rate: 10, Burst: 4}, func(t *testing.T, l Limiter) {
		if _, ok := l.Reserve(t0, 100, -1); ok {
			t.Fatal("request larger than burst admitted")
		}
		// The refusal charged nothing.
		if w, ok := l.Reserve(t0, 4, 0); !ok || w != 0 {
			t.Fatalf("burst after oversize refusal: wait=%v ok=%v", w, ok)
		}
	})
}

func TestSteadyRateConverges(t *testing.T) {
	// Admitting with unbounded wait, the cumulative admitted count over
	// a simulated second must approach Rate + Burst (every strategy
	// meters the same sustained rate).
	eachStrategy(t, Config{Rate: 100, Burst: 10}, func(t *testing.T, l Limiter) {
		admitted := 0
		now := t0
		for i := 0; i < 2000; i++ {
			w, ok := l.Reserve(now, 1, 0)
			if ok && w == 0 {
				admitted++
			}
			now = now.Add(time.Millisecond) // 1ms per attempt: 2 simulated seconds
		}
		// 2s at 100/s plus the initial burst of 10 = 210 (±5 tolerance
		// for boundary rounding).
		if admitted < 200 || admitted > 215 {
			t.Fatalf("admitted %d over 2s at rate 100 burst 10, want ~210", admitted)
		}
	})
}

func TestCancelReturnsCharge(t *testing.T) {
	eachStrategy(t, Config{Rate: 10, Burst: 4}, func(t *testing.T, l Limiter) {
		if _, ok := l.Reserve(t0, 4, 0); !ok {
			t.Fatal("burst refused")
		}
		if _, ok := l.Reserve(t0, 1, 0); ok {
			t.Fatal("empty limiter admitted")
		}
		l.(Canceler).Cancel(t0, 4)
		if w, ok := l.Reserve(t0, 4, 0); !ok || w != 0 {
			t.Fatalf("post-cancel burst: wait=%v ok=%v, want immediate", w, ok)
		}
	})
}

func TestTokenBucketNeverExceedsBurstOnCancel(t *testing.T) {
	tb, err := NewTokenBucket(Config{Rate: 10, Burst: 4})
	if err != nil {
		t.Fatal(err)
	}
	tb.Cancel(t0, 1000)
	if got := tb.Tokens(t0); got > 4 {
		t.Fatalf("cancel overfilled bucket: %v tokens, burst 4", got)
	}
}

func TestMultiTierAllMustAdmit(t *testing.T) {
	tight, err := New("token_bucket", Config{Rate: 5, Burst: 2})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := New("gcra", Config{Rate: 100, Burst: 50})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := NewMultiTier(tight, loose)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mt.Name(), "multi(token_bucket+gcra)"; got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
	// The tight tier dominates: 2 immediate units, then refusal at
	// maxWait=0 even though the loose tier has plenty.
	for i := 0; i < 2; i++ {
		if w, ok := mt.Reserve(t0, 1, 0); !ok || w != 0 {
			t.Fatalf("unit %d: wait=%v ok=%v", i, w, ok)
		}
	}
	if _, ok := mt.Reserve(t0, 1, 0); ok {
		t.Fatal("multi-tier admitted past the tight tier")
	}
}

func TestMultiTierRefusalCancelsEarlierTiers(t *testing.T) {
	first, err := NewTokenBucket(Config{Rate: 10, Burst: 10})
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewTokenBucket(Config{Rate: 10, Burst: 2})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := NewMultiTier(first, second)
	if err != nil {
		t.Fatal(err)
	}
	// 5 units: the first tier would admit, the second refuses; the
	// first tier's balance must be restored.
	if _, ok := mt.Reserve(t0, 5, 0); ok {
		t.Fatal("expected second-tier refusal")
	}
	if got := first.Tokens(t0); got != 10 {
		t.Fatalf("refused reserve leaked charge on first tier: %v tokens, want 10", got)
	}
	if _, err := NewMultiTier(); err == nil {
		t.Fatal("empty multi-tier must error")
	}
}

func TestMultiTierWaitIsMax(t *testing.T) {
	slow, err := NewTokenBucket(Config{Rate: 1, Burst: 1})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewTokenBucket(Config{Rate: 1000, Burst: 1})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := NewMultiTier(slow, fast)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mt.Reserve(t0, 1, -1); !ok {
		t.Fatal("first unit refused")
	}
	w, ok := mt.Reserve(t0, 1, -1)
	if !ok {
		t.Fatal("second unit refused at unbounded wait")
	}
	// The slow tier needs ~1s; the fast one ~1ms. Max must win.
	if w < 900*time.Millisecond {
		t.Fatalf("multi-tier wait = %v, want ~1s (max across tiers)", w)
	}
}

func TestReserveConcurrentTotal(t *testing.T) {
	// Under concurrency the admitted total must respect rate*time+burst.
	eachStrategy(t, Config{Rate: 1000, Burst: 100}, func(t *testing.T, l Limiter) {
		const goroutines = 8
		done := make(chan int, goroutines)
		for g := 0; g < goroutines; g++ {
			go func() {
				n := 0
				now := t0
				for i := 0; i < 500; i++ {
					if w, ok := l.Reserve(now, 1, 0); ok && w == 0 {
						n++
					}
					now = now.Add(250 * time.Microsecond)
				}
				done <- n
			}()
		}
		total := 0
		for g := 0; g < goroutines; g++ {
			total += <-done
		}
		// 125ms of simulated time per goroutine, wall-clock interleaved;
		// the loosest upper bound is burst + rate * max-simulated-span.
		if total > 100+1000/4+50 {
			t.Fatalf("admitted %d, exceeds quota envelope", total)
		}
		if total < 100 {
			t.Fatalf("admitted %d, less than burst 100", total)
		}
	})
}
