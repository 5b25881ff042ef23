package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// client is one logical generator connection: its own transport capped
// at a single connection, so a workload's connection count is its
// client count.
type client struct {
	hc   *http.Client
	base string
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: "http://" + addr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if method == http.MethodPost && body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// Response shapes of the trictd API the generator checks.
type ingestReply struct {
	Edges      uint64 `json:"edges"`
	TotalEdges uint64 `json:"total_edges"`
}

type estimateReply struct {
	Edges     uint64  `json:"edges"`
	Triangles float64 `json:"triangles"`
}

func decodeReply[T any](b []byte) (T, error) {
	var v T
	err := json.Unmarshal(b, &v)
	return v, err
}

// tally counts requests and failed checks across goroutines. Every
// request is one check: a transport error, a non-2xx status or a wrong
// reply fails it, and the first failures are kept for the error report.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu   sync.Mutex
	errs []string
}

func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted.Add(1)
	if ok {
		return true
	}
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.errs) < 20 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
	return false
}

func (t *tally) errors() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.errs...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
