package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// server is one spawned cycleserved process, bound to an ephemeral
// 127.0.0.1 port.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	log    bytes.Buffer
}

// startServer spawns the binary directly (no shell wrapper, so the PID
// signalled is the server's own) and waits until /healthz answers ok.
func startServer(bin string, conns int, extra ...string) (*server, error) {
	if bin == "" {
		return nil, errors.New("no -server binary given (run through perfbench/run.sh)")
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		s := &server{
			base:   "http://127.0.0.1:" + strconv.Itoa(port),
			exited: make(chan struct{}),
			client: &http.Client{
				Timeout: 60 * time.Second,
				Transport: &http.Transport{
					MaxIdleConns:        conns,
					MaxIdleConnsPerHost: conns,
					MaxConnsPerHost:     conns,
					IdleConnTimeout:     time.Minute,
				},
			},
		}
		args := append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}, extra...)
		s.cmd = exec.Command(bin, args...)
		s.cmd.Stdout = &s.log
		s.cmd.Stderr = &s.log
		// The server dies with the benchmark even if the benchmark is
		// killed before it can stop it.
		s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := s.cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting %s: %w", bin, err)
		}
		go func() {
			_ = s.cmd.Wait() // exit status is read through ProcessState
			close(s.exited)
		}()
		if err := s.waitHealthy(15 * time.Second); err != nil {
			lastErr = err
			s.stop()
			continue
		}
		return s, nil
	}
	return nil, lastErr
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

func (s *server) waitHealthy(limit time.Duration) error {
	end := time.Now().Add(limit)
	probe := &http.Client{Timeout: time.Second}
	for time.Now().Before(end) {
		select {
		case <-s.exited:
			return fmt.Errorf("server exited before healthy: %s", s.log.String())
		default:
		}
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained for reuse; content unused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server not healthy after %v: %s", limit, s.log.String())
}

// stop signals the server by its own PID and waits for it to exit,
// escalating to SIGKILL after a grace period.
func (s *server) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// peakRSS reads the server's VmHWM; call before stop.
func (s *server) peakRSS() (float64, error) {
	return peakRSSMB(strconv.Itoa(s.cmd.Process.Pid))
}

// peaks keeps the VmHWM of each server a run sets up, read when its
// set-up ends. A server's set-up and warm-up peak moved by up to a fifth
// between runs with where the collector happened to run in them, so
// peak_rss_mb takes the set-up part of the peak as the median over the
// run's set-ups, and adds what the measured pass raised the measured
// server's peak by.
type peaks struct {
	mib []float64
}

// add records the peak of a server whose set-up just ended.
func (p *peaks) add(s *server) error {
	mib, err := s.peakRSS()
	if err == nil {
		p.mib = append(p.mib, mib)
	}
	return err
}

// report reads the measured server s (the last one added) at the end of
// the run and reports peak_rss_mb.
func (p *peaks) report(rep *report, s *server) error {
	mib, err := s.peakRSS()
	if err != nil {
		return err
	}
	pass := mib - p.mib[len(p.mib)-1] // a high-water mark only rises
	rep.setE2E("peak_rss_mb", median(p.mib)+pass, "MiB")
	rep.note("peak_rss_mb: median set-up peak of %d servers %.2f MiB, plus %.2f MiB the pass added on the measured server", len(p.mib), median(p.mib), pass)
	return nil
}

// cpuSeconds reads the user plus system CPU time the server has used,
// from /proc/<pid>/stat in clock ticks of 1/100 s (Linux's USER_HZ).
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndex(b, []byte(") "))
	f := strings.Fields(string(b[i+2:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", b)
	}
	var ticks float64
	for _, field := range f[11:13] {
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc stat cpu field %q: %w", field, err)
		}
		ticks += v
	}
	return ticks / 100, nil
}

// post sends one JSON body and returns status, body and headers.
func (s *server) post(path string, body []byte) (int, []byte, http.Header, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, resp.Header, err
}

// postOK is post that treats anything but want as an error.
func (s *server) postOK(path string, body []byte, want int) ([]byte, error) {
	status, out, _, err := s.post(path, body)
	if err != nil {
		return nil, err
	}
	if status != want {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, status, out)
	}
	return out, nil
}

func (s *server) getJSON(path string, into any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// scrape reads /metrics through the repository's strict parser.
func (s *server) scrape() (*obs.Exposition, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	exp, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	return exp, exp.Validate()
}

// createCorpus ships a harness-built graph as a named corpus entry and
// returns the fingerprint the server acknowledged.
func (s *server) createCorpus(in *inst) (string, error) {
	body, err := json.Marshal(map[string]any{"graph": wireGraphOf(in)})
	if err != nil {
		return "", err
	}
	out, err := s.postOK("/v1/corpus/"+in.name, body, http.StatusCreated)
	if err != nil {
		return "", err
	}
	var entry struct{ Fingerprint string }
	if err := json.Unmarshal(out, &entry); err != nil {
		return "", fmt.Errorf("corpus create response: %w", err)
	}
	return entry.Fingerprint, nil
}

// wireGraph is the inline graph form of the HTTP API.
type wireGraph struct {
	N     int        `json:"n"`
	Edges [][2]int32 `json:"edges"`
}

func wireGraphOf(in *inst) wireGraph {
	edges := make([][2]int32, len(in.edges))
	for i, e := range in.edges {
		edges[i] = [2]int32{int32(e[0]), int32(e[1])}
	}
	return wireGraph{N: in.n, Edges: edges}
}

// stats is the part of GET /v1/stats the ledger reads.
type stats struct {
	Requests       int64 `json:"requests"`
	Hits           int64 `json:"hits"`
	Coalesced      int64 `json:"coalesced"`
	Computed       int64 `json:"computed"`
	EngineSessions int64 `json:"engine_sessions"`
}
