package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"slices"
	"sync"
	"time"
)

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified). NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// window is the stealClock's resolution. Steal comes in bursts of tens
// of milliseconds; at a tenth of a second most windows of a pass hold
// none even when the pass as a whole lost a fifth of its CPU.
const window = 100 * time.Millisecond

// stealClock marks the host's steal time once a window through a
// measured pass. On a shared host the hypervisor takes stretches of CPU
// from the guest; the pass is summarized over its quiet windows.
type stealClock struct {
	start   time.Time
	elapsed float64   // seconds, set by finish
	marks   []float64 // cumulative steal jiffies at start + i windows
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
}

func startStealClock() *stealClock {
	c := &stealClock{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	steal, _ := cpuTimes()
	c.marks = append(c.marks, steal)
	go func() {
		defer close(c.done)
		tick := time.NewTicker(window)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				steal, _ := cpuTimes()
				c.marks = append(c.marks, steal)
			case <-c.stop:
				return
			}
		}
	}()
	return c
}

// finish stops the clock when the pass ends; later calls do nothing.
func (c *stealClock) finish() {
	c.once.Do(func() {
		close(c.stop)
		<-c.done
		c.elapsed = time.Since(c.start).Seconds()
	})
}

// quiet reports, for each whole window of the pass, whether the host
// took no more steal time in it than in the quietest quarter of the
// windows: every steal-free window when a quarter or more are, else the
// quietest quarter. A pass in a busy stretch of the host is so judged by
// its least disturbed moments, not by its typical ones.
func (c *stealClock) quiet() []bool {
	var deltas []float64
	for i := 1; i < len(c.marks); i++ {
		deltas = append(deltas, c.marks[i]-c.marks[i-1])
	}
	q := make([]bool, len(deltas))
	if len(deltas) == 0 {
		return q
	}
	sorted := slices.Clone(deltas)
	slices.Sort(sorted)
	limit := sorted[len(sorted)/4]
	for i, d := range deltas {
		q[i] = d <= limit
	}
	return q
}

// quietSummary reports p50_ms over the ops completed in the quiet
// windows of a pass and, for a closed loop, ops_per_s as those ops per
// second of quiet windows. An open loop's completions per wall second
// follow its arrival schedule, so it reports its own ops_per_s.
// lat[i] completed at done[i].
func quietSummary(rep *report, lat []float64, done []time.Time, clk *stealClock, closed bool) {
	q := clk.quiet()
	quietWindows := 0
	for _, ok := range q {
		if ok {
			quietWindows++
		}
	}
	var quietLat []float64
	for i, d := range done {
		if w := int(d.Sub(clk.start) / window); w < len(q) && q[w] {
			quietLat = append(quietLat, lat[i])
		}
	}
	if closed {
		ops := float64(len(lat)) / clk.elapsed
		if len(quietLat) > 0 {
			ops = float64(len(quietLat)) / (float64(quietWindows) * window.Seconds())
		}
		rep.setE2E("ops_per_s", ops, "1/s")
	}
	if len(quietLat) == 0 { // a pass shorter than a window
		quietLat = lat
	}
	rep.setE2E("p50_ms", median(quietLat), "ms")
	rep.note("quiet windows: %d of %d of %v (p50_ms over %d of %d ops)", quietWindows, len(q), window, len(quietLat), len(lat))
}

// p99Valid reports whether a sample of n supports a p99: at least ten
// samples beyond it.
func p99Valid(n int) bool { return float64(n)*0.01 >= 10 }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Times are nanoseconds since the log's
// epoch; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	next  int64
	spans []span
}

// add records a finished span and returns its id.
func (l *spanLog) add(name string, req, parent int64, start, end time.Time) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.epoch.IsZero() {
		l.epoch = start
	}
	l.next++
	l.spans = append(l.spans, span{
		ID: l.next, Parent: parent, Req: req, Name: name,
		Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds(),
	})
	return l.next
}

// selfTimes returns, per span name, every span's duration minus the time
// its direct children cover, in microseconds.
func (l *spanLog) selfTimes() map[string][]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := map[int64]int64{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for _, s := range l.spans {
		self := max(0, s.End-s.Start-child[s.ID])
		out[s.Name] = append(out[s.Name], float64(self)/1e3)
	}
	return out
}

// durations returns, per span name, every span's full duration in
// microseconds.
func (l *spanLog) durations() map[string][]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string][]float64{}
	for _, s := range l.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e3)
	}
	return out
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
