package limit

import (
	"math"
	"testing"
	"time"
)

var t0 = time.Unix(1_700_000_000, 0)

func at(d time.Duration) time.Time { return t0.Add(d) }

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{{Rate: 0}, {Rate: -1}, {Rate: math.Inf(1)}, {Rate: math.NaN()}, {Rate: 1, Burst: -2}} {
		if _, err := NewTokenBucket(bad); err == nil {
			t.Fatalf("accepted bad config %+v", bad)
		}
	}
}

func bucket(t *testing.T, cfg Config) *TokenBucket {
	t.Helper()
	l, err := NewTokenBucket(cfg)
	if err != nil {
		t.Fatalf("NewTokenBucket(%+v): %v", cfg, err)
	}
	return l
}

func TestBurstThenThrottle(t *testing.T) {
	t.Run("token_bucket", func(t *testing.T) {
		l := bucket(t, Config{Rate: 10, Burst: 5})
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
	t.Run("token_bucket", func(t *testing.T) {
		l := bucket(t, Config{Rate: 10, Burst: 2})
		if _, ok := l.Reserve(t0, 2, 0); !ok {
			t.Fatal("within-burst reserve refused")
		}
		// Bucket empty: zero-wait admission must now refuse...
		if _, ok := l.Reserve(t0, 1, 0); ok {
			t.Fatal("empty bucket admitted with maxWait=0")
		}
		// ...and refusal must not have charged: after one emission
		// interval a single unit admits immediately again.
		if w, ok := l.Reserve(at(100*time.Millisecond), 1, 0); !ok || w != 0 {
			t.Fatalf("recovered unit: wait=%v ok=%v, want immediate", w, ok)
		}
	})
}

func TestOversizeRequestRefused(t *testing.T) {
	t.Run("token_bucket", func(t *testing.T) {
		l := bucket(t, Config{Rate: 10, Burst: 4})
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
	t.Run("token_bucket", func(t *testing.T) {
		// Admitting with unbounded wait, the cumulative admitted count over
		// two simulated seconds must approach 2*Rate + Burst.
		l := bucket(t, Config{Rate: 100, Burst: 10})
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

func TestReserveConcurrentTotal(t *testing.T) {
	t.Run("token_bucket", func(t *testing.T) {
		// Under concurrency the admitted total must respect rate*time+burst.
		l := bucket(t, Config{Rate: 1000, Burst: 100})
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
