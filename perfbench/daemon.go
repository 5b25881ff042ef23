package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// launchTimeout bounds how long a trictd start (fresh or recovering) may
// take to write its -addr-file.
const launchTimeout = 60 * time.Second

// harness owns every trictd child and every directory one benchmark
// invocation creates, so a single cleanup releases them on each exit
// path: normal return, error, timeout, signal and panic.
type harness struct {
	bin  string // trictd binary
	root string // this invocation's scratch directory

	mu    sync.Mutex
	procs map[*daemon]struct{}
	seq   int
	once  sync.Once
}

func newHarness(bin, work string) (*harness, error) {
	if err := os.MkdirAll(filepath.Join(work, "runs"), 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(filepath.Join(work, "runs"), "run-")
	if err != nil {
		return nil, err
	}
	return &harness{bin: bin, root: root, procs: make(map[*daemon]struct{})}, nil
}

// newDir makes a fresh directory under the invocation's scratch root.
func (h *harness) newDir(prefix string) (string, error) {
	return os.MkdirTemp(h.root, prefix+"-")
}

// cleanup kills every live child, waits for it, and removes the scratch
// root. Safe to call from any goroutine, any number of times.
func (h *harness) cleanup() {
	h.once.Do(func() {
		h.mu.Lock()
		live := make([]*daemon, 0, len(h.procs))
		for d := range h.procs {
			live = append(live, d)
		}
		h.mu.Unlock()
		for _, d := range live {
			if err := h.kill(d); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
			}
		}
		if err := os.RemoveAll(h.root); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: removing scratch dir:", err)
		}
	})
}

// guard, deferred first in every goroutine, releases the children and
// directories before a panic on that goroutine takes the process down,
// then re-raises it.
func (h *harness) guard() {
	if p := recover(); p != nil {
		h.cleanup()
		panic(p)
	}
}

// daemon is one running trictd.
type daemon struct {
	cmd     *exec.Cmd
	done    chan struct{} // closed once Wait has returned
	waitErr error
	addr    string
	logPath string
}

// launch starts trictd on dataDir and returns once it has written its
// bound address, together with the time from exec to that point.
//
// The WAL runs under -wal-sync none: every batch is still logged before
// it reaches the counter and survives the benchmark's SIGKILLs (the page
// cache outlives the process), but no fsync sits in the timed path, so
// the figures measure trictd rather than the shared disk's fsync
// latency. The traced run prices fsync on its own (serve.fsync_ms_*).
// -checkpoint-interval 0 keeps timer checkpoints out of the timed phase.
func (h *harness) launch(dataDir string) (*daemon, time.Duration, error) {
	h.mu.Lock()
	h.seq++
	seq := h.seq
	h.mu.Unlock()
	addrFile := filepath.Join(h.root, fmt.Sprintf("addr-%d", seq))
	logPath := filepath.Join(h.root, fmt.Sprintf("trictd-%d.log", seq))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(h.bin, "-data", dataDir, "-addr", "127.0.0.1:0",
		"-addr-file", addrFile, "-checkpoint-interval", "0", "-wal-sync", "none")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the child if this process dies without cleaning
	// up (SIGKILL of the benchmark itself).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err = cmd.Start()
	logf.Close() // the child holds its own descriptor
	if err != nil {
		return nil, 0, fmt.Errorf("starting trictd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{}), logPath: logPath}
	h.mu.Lock()
	h.procs[d] = struct{}{}
	h.mu.Unlock()
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()
	for {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.addr = strings.TrimSpace(string(b))
			return d, time.Since(start), nil
		}
		select {
		case <-d.done:
			h.forget(d)
			return nil, 0, fmt.Errorf("trictd exited before listening (%v); log:\n%s", d.waitErr, logTail(logPath))
		default:
		}
		if time.Since(start) > launchTimeout {
			err := fmt.Errorf("trictd wrote no -addr-file within %s; log:\n%s", launchTimeout, logTail(logPath))
			if kerr := h.kill(d); kerr != nil {
				err = fmt.Errorf("%w; %v", err, kerr)
			}
			return nil, 0, err
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (h *harness) forget(d *daemon) {
	h.mu.Lock()
	delete(h.procs, d)
	h.mu.Unlock()
}

// kill sends SIGKILL and waits for the process to be reaped.
func (h *harness) kill(d *daemon) error {
	_ = d.cmd.Process.Kill() // fails only if it already exited; Wait tells
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		return fmt.Errorf("trictd pid %d still running 10s after SIGKILL", d.cmd.Process.Pid)
	}
	h.forget(d)
	return nil
}

// peakRSSMiB reads the child's high-water resident set (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// cpuTime reads the child's user plus system CPU time over all its
// threads from /proc/<pid>/stat, in clock ticks of 10 ms (USER_HZ). Time
// the hypervisor gave to other guests (steal) is not in it.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the ")" that closes the command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat: %q", d.cmd.Process.Pid, b)
	}
	var ticks uint64
	for _, s := range f[11:13] {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc/%d/stat: %w", d.cmd.Process.Pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// logTail returns the last lines of a child's log for error messages.
func logTail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Sprintf("(log unreadable: %v)", err)
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}
