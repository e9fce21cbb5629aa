package main

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// loadgen.go is the open-loop load generator: a fixed schedule of
// operations, each due at an offset from the phase start, sent by at most
// `senders` concurrent senders (the client connections). A sender takes
// the next operation in schedule order, sleeps until it is due, and sends
// it. Latency is timed from the scheduled send, so a stall that delays
// later operations is charged to them. Generator lateness — how far past
// its due time (or past the moment a sender freed up, if later) an
// operation actually left — is recorded separately, so a late generator
// cannot pass for a slow server.

// senders is the number of concurrent client connections.
const senders = 2

// opKind distinguishes reads from writes in one schedule.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// op is one scheduled operation.
type op struct {
	at     time.Duration
	kind   opKind
	vertex int32
	rank   int
	edges  [][2]int32
}

// opResult is what the generator observed for one operation.
type opResult struct {
	latency time.Duration // completion − scheduled send
	rtt     time.Duration // completion − actual send
	late    time.Duration // generator lateness
	body    []byte
	err     error
}

// runSchedule plays ops open-loop and returns one result per op.
func runSchedule(ops []op, send func(o op) ([]byte, error)) []opResult {
	res := make([]opResult, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(ops[i].at)
				picked := time.Now()
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				body, err := send(ops[i])
				done := time.Now()
				ready := due
				if picked.After(due) {
					ready = picked
				}
				res[i] = opResult{
					latency: done.Sub(due), rtt: done.Sub(sent), late: sent.Sub(ready),
					body: body, err: err,
				}
			}
		}()
	}
	wg.Wait()
	return res
}

// poissonTimes draws n arrival offsets of a Poisson process at rate per
// second.
func poissonTimes(rng *rand.Rand, n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// mergeOps merges two schedules into one ordered by due time.
func mergeOps(a, b []op) []op {
	out := append(append([]op(nil), a...), b...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// phaseStats summarizes one phase.
type phaseStats struct {
	failed   int       // reads that failed
	lat      []float64 // read latency from scheduled send, ms (successful reads)
	wait     []float64 // read latency − round trip: time waiting for a sender, ms
	late     []float64 // generator lateness of every op, ms
	p99      float64   // of lat
	tailP50  float64   // read p50 over the last fifth of the schedule, ms
	writeRTT []float64 // /update round trips, ms
}

// summarize computes a phase's figures; failed reads count separately and
// are excluded from the latencies.
func summarize(ops []op, res []opResult) phaseStats {
	var ps phaseStats
	var tail []float64
	cut := 4 * len(ops) / 5
	for i, r := range res {
		ps.late = append(ps.late, ms(r.late))
		if ops[i].kind == opWrite {
			if r.err == nil {
				ps.writeRTT = append(ps.writeRTT, ms(r.rtt))
			}
			continue
		}
		if r.err != nil {
			ps.failed++
			continue
		}
		ps.lat = append(ps.lat, ms(r.latency))
		ps.wait = append(ps.wait, ms(r.latency-r.rtt))
		if i >= cut {
			tail = append(tail, ms(r.latency))
		}
	}
	ps.p99 = quantile(ps.lat, 0.99)
	ps.tailP50 = quantile(tail, 0.5)
	return ps
}
