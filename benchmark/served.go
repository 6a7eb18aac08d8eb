package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/client"
)

// server is one olapd child process, known only by its flags, its log
// lines, its wire and /metrics endpoints, and its /proc entry.
type server struct {
	cmd    *exec.Cmd
	addr   string // wire protocol
	obs    string // /metrics
	log    *logWatcher
	exited chan struct{}
}

// logWatcher collects olapd's stderr and picks the two listen addresses
// out of it: both are bound to port 0, so the log is where they are told.
type logWatcher struct {
	mu        sync.Mutex
	buf       bytes.Buffer
	addr, obs string
	ready     chan struct{}
}

var (
	servingRE = regexp.MustCompile(`msg="olapd serving" addr=(\S+)`)
	obsRE     = regexp.MustCompile(`msg="observability endpoint" addr=(\S+)`)
)

func (w *logWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if w.obs == "" {
		if m := servingRE.FindSubmatch(w.buf.Bytes()); m != nil {
			w.addr = string(m[1])
		}
		if m := obsRE.FindSubmatch(w.buf.Bytes()); m != nil && w.addr != "" {
			w.obs = string(m[1])
			close(w.ready)
		}
	}
	return len(p), nil
}

func (w *logWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startServer launches olapd on dbPath with its default flags plus the
// ones the workload names, and returns once it answers a Ping.
func startServer(bin, dbPath string, flags []string) (*server, error) {
	args := append([]string{"-db", dbPath, "-listen", "127.0.0.1:0", "-obs", "127.0.0.1:0"}, flags...)
	s := &server{
		cmd:    exec.Command(bin, args...),
		log:    &logWatcher{ready: make(chan struct{})},
		exited: make(chan struct{}),
	}
	s.cmd.Stderr = s.log
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start olapd: %w", err)
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	select {
	case <-s.log.ready:
	case <-s.exited:
		return nil, fmt.Errorf("olapd exited before serving:\n%s", s.log)
	case <-time.After(30 * time.Second):
		s.stop(syscall.SIGKILL)
		return nil, fmt.Errorf("olapd did not report its addresses:\n%s", s.log)
	}
	s.addr, s.obs = s.log.addr, s.log.obs
	conn, err := client.Dial(s.addr, client.Config{})
	if err == nil {
		err = conn.Ping()
		conn.Close()
	}
	if err != nil {
		s.stop(syscall.SIGKILL)
		return nil, fmt.Errorf("first ping: %w", err)
	}
	return s, nil
}

// stop signals olapd and waits until it has ended.
func (s *server) stop(sig syscall.Signal) {
	s.cmd.Process.Signal(sig)
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat's CPU
// fields; it is 100 on every Linux configuration Go supports.
const clockTick = 100

// cpu reports olapd's user+system CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is the first,
	// utime and stime the 12th and 13th.
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", raw)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", raw)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// rss reports olapd's resident set in bytes.
func (s *server) rss() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc status")
}

// counters scrapes olapd's /metrics as JSON and returns its counters by
// name.
func (s *server) counters() (map[string]float64, error) {
	resp, err := http.Get("http://" + s.obs + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	out := make(map[string]float64, len(snap.Counters))
	for _, c := range snap.Counters {
		out[c.Name] = c.Value
	}
	return out, nil
}

// selfCPU reports the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
