package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/graph"
	"distgnn/internal/model"
	"distgnn/internal/nn"
	"distgnn/internal/obs"
	"distgnn/internal/serve"
	"distgnn/internal/tensor"
	"distgnn/internal/train"
)

// fleet.go starts the exact serving fleet the serving workloads drive: one
// serve.NewShard per rank, halo frames over a loopback TCP fabric, each
// rank behind its own HTTP listener, the obs metrics registry on as
// distgnn-serve defaults and the tracer off.

// fleetPartitionSeed is the fleet's partition seed: serve.ShardConfig's
// default, as distgnn-serve runs it.
const fleetPartitionSeed = 1

// routedHeader makes a rank answer a vertex itself instead of proxying it
// to the owner; the final-graph check uses it to test every rank's engine.
const routedHeader = "X-Distgnn-Routed"

// fleet is a live serving fleet.
type fleet struct {
	addrs   []string
	servers []*serve.Server
	https   []*http.Server
	fabric  []comm.Transport
	served  chan error
}

// serveConfig is the per-rank serving configuration of a workload.
func serveConfig(rc *runCtx, updates bool) serve.Config {
	c := rc.cfg
	return serve.Config{
		Arch: serve.ArchGraphSAGE, Hidden: hidden, NumLayers: c.Layers,
		MaxBatch: maxBatch, MaxWait: maxWait,
		FeatureCacheBytes: int64(c.FeatureCacheMB * (1 << 20)),
		EmbedCacheBytes:   int64(c.EmbedCacheMB * (1 << 20)),
		EnableUpdates:     updates,
		CompactThreshold:  c.CompactThreshold,
		Metrics:           obs.NewRegistry(),
	}
}

// startFleet builds the fleet and returns once every rank answers
// /healthz.
func startFleet(rc *runCtx, ds *datasets.Dataset, ckpt []byte, updates bool, client *http.Client) (*fleet, error) {
	n := fleetShards
	fabric, err := comm.NewLoopbackTCP(n, comm.DefaultTCPTimeout)
	if err != nil {
		return nil, err
	}
	f := &fleet{fabric: fabric, served: make(chan error, n)}
	var lns []net.Listener
	var peers []serve.PeerAddr
	for r := 0; r < n; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			f.close()
			return nil, err
		}
		lns = append(lns, ln)
		f.addrs = append(f.addrs, ln.Addr().String())
		peers = append(peers, serve.PeerAddr{Rank: r, Addr: ln.Addr().String()})
	}
	for r := 0; r < n; r++ {
		srv, err := serve.NewShard(ds, bytes.NewReader(ckpt), serveConfig(rc, updates), serve.ShardConfig{
			Rank: r, Shards: n, Transport: fabric[r], HTTPPeers: peers,
		})
		if err != nil {
			for _, l := range lns[r:] {
				l.Close()
			}
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		hs := &http.Server{Handler: srv.Handler()}
		f.https = append(f.https, hs)
		go func(ln net.Listener) { f.served <- hs.Serve(ln) }(lns[r])
	}
	for _, addr := range f.addrs {
		if err := waitHealthy(client, addr); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// waitHealthy polls a rank's /healthz until it answers 200.
func waitHealthy(client *http.Client, addr string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rank at %s not healthy after 30s (last error: %v)", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the HTTP servers, waits for their serve loops, and closes
// the engines and the fabric.
func (f *fleet) close() {
	for _, hs := range f.https {
		hs.Close()
	}
	for range f.https {
		<-f.served
	}
	for _, s := range f.servers {
		s.Close()
	}
	for _, t := range f.fabric {
		t.Close()
	}
}

// totals sums the fleet's serving counters.
type totals struct {
	predicts, routed     int64
	embHits, embMisses   int64
	haloHits, haloMisses int64
	haloRows, haloBytes  int64
}

func (f *fleet) totals() totals {
	var t totals
	for _, s := range f.servers {
		st := s.StatsSnapshot()
		t.predicts += st.Predicts
		t.embHits += st.EmbeddingCache.Hits
		t.embMisses += st.EmbeddingCache.Misses
		if sh := st.Shard; sh != nil {
			t.routed += sh.RoutedOut
			t.haloHits += sh.HaloHits
			t.haloMisses += sh.HaloMisses
			t.haloRows += sh.HaloFetchedVertices
			t.haloBytes += sh.HaloFetchedBytes
		}
	}
	return t
}

func (a totals) minus(b totals) totals {
	return totals{
		predicts: a.predicts - b.predicts, routed: a.routed - b.routed,
		embHits: a.embHits - b.embHits, embMisses: a.embMisses - b.embMisses,
		haloHits: a.haloHits - b.haloHits, haloMisses: a.haloMisses - b.haloMisses,
		haloRows: a.haloRows - b.haloRows, haloBytes: a.haloBytes - b.haloBytes,
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// newClient is the load generator's HTTP client: at most two connections
// per rank, matching the two senders.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: senders,
			MaxConnsPerHost:     senders,
		},
	}
}

// predict sends GET /predict and returns the body. local asks the rank to
// answer with its own engine instead of routing to the owner.
func predict(client *http.Client, addr string, v int32, local bool) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet,
		"http://"+addr+"/predict?vertex="+strconv.Itoa(int(v)), nil)
	if err != nil {
		return nil, err
	}
	if local {
		req.Header.Set(routedHeader, "1")
	}
	return do(client, req)
}

// postUpdate sends one insert batch to POST /update.
func postUpdate(client *http.Client, addr string, edges [][2]int32) ([]byte, error) {
	body, err := json.Marshal(serve.UpdateRequest{Edges: edges})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/update", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(client, req)
}

// do runs a request and returns its body; any status but 200 (a 429
// included) is an error.
func do(client *http.Client, req *http.Request) ([]byte, error) {
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode,
			bytes.TrimSpace(body))
	}
	return body, nil
}

// checkpointSeed seeds the served model's training. The checkpoint, like
// the dataset, is the same for every run; --seed varies the traffic.
const checkpointSeed = 1

// checkpoint trains the served model with train.SingleSocket and returns
// the checkpoint bytes.
func checkpoint(rc *runCtx, ds *datasets.Dataset) ([]byte, error) {
	c := rc.cfg
	res, err := train.SingleSocket(ds, train.SingleConfig{
		Model:  model.Config{Hidden: hidden, NumLayers: c.Layers, Seed: checkpointSeed},
		Epochs: checkpointEpochs, LR: checkpointLR, UseAdam: true, Workers: kernelWorkers,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := nn.WriteParams(&buf, res.Model.Params()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// referenceLogits is the exactness reference: a full-graph model Forward
// over g with the checkpoint's parameters.
func referenceLogits(rc *runCtx, ds *datasets.Dataset, g *graph.CSR, ckpt []byte) (*tensor.Matrix, error) {
	m, err := model.New(g, model.Config{
		InDim: ds.Features.Cols, Hidden: hidden, OutDim: ds.NumClasses,
		NumLayers: rc.cfg.Layers, Seed: rc.seed,
	}, nil)
	if err != nil {
		return nil, err
	}
	if err := nn.ReadParams(bytes.NewReader(ckpt), m.Params()); err != nil {
		return nil, err
	}
	return m.Forward(ds.Features, false), nil
}

// decodePredict parses a /predict body and checks it answers vertex v.
func decodePredict(body []byte, v int32) ([]float32, error) {
	var ans serve.PredictResponse
	if err := json.Unmarshal(body, &ans); err != nil {
		return nil, fmt.Errorf("vertex %d: undecodable body: %v", v, err)
	}
	if ans.Vertex != v {
		return nil, fmt.Errorf("asked for vertex %d, answer is for %d", v, ans.Vertex)
	}
	return ans.Logits, nil
}

// sameBits reports whether got equals want bit for bit.
func sameBits(got, want []float32) bool {
	if len(got) != len(want) {
		return false
	}
	for j := range got {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			return false
		}
	}
	return true
}

// crossEntropy is −log softmax(logits)[label].
func crossEntropy(logits []float32, label int32) float64 {
	mx := math.Inf(-1)
	for _, v := range logits {
		mx = math.Max(mx, float64(v))
	}
	var s float64
	for _, v := range logits {
		s += math.Exp(float64(v) - mx)
	}
	return math.Log(s) + mx - float64(logits[label])
}
