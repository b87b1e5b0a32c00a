package bench

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// command prepares a child process in its own process group, so that
// cancelling ctx kills it together with any worker processes it spawned.
func command(ctx context.Context, bin string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	return cmd
}

// toolRun is one finished child process.
type toolRun struct {
	stdout []byte
	wall   time.Duration
	ps     *os.ProcessState
	// peakMiB is the largest VmHWM seen in the process and its descendants
	// while they ran.
	peakMiB float64
}

// cpu is the user plus system time of the process and its reaped children.
func (t toolRun) cpu() time.Duration { return t.ps.UserTime() + t.ps.SystemTime() }

// runTool runs bin to completion and reports its output, wall time and
// resource usage. A non-zero exit is an error carrying the tail of stderr.
func runTool(ctx context.Context, bin string, args ...string) (toolRun, error) {
	cmd := command(ctx, bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return toolRun{}, err
	}
	stop := make(chan struct{})
	peak := make(chan float64)
	go func() { peak <- pollPeakRSS(cmd.Process.Pid, stop) }()
	err := cmd.Wait()
	close(stop)
	run := toolRun{stdout: stdout.Bytes(), wall: time.Since(t0), ps: cmd.ProcessState, peakMiB: <-peak}
	if err != nil {
		return run, fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, tailOf(stderr.Bytes(), 800))
	}
	return run, nil
}

// pollPeakRSS samples the VmHWM of pid and of its descendants every
// millisecond until stop closes, and returns the largest. VmHWM only
// grows, so a process's last sample is close to its peak. (wait4's
// ru_maxrss cannot serve: Linux folds the spawning process's own peak into
// a child's at exec, so it would report this benchmark's memory.)
func pollPeakRSS(pid int, stop <-chan struct{}) float64 {
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	var peak float64
	for {
		for _, p := range processTree(pid) {
			if v, err := peakRSSMiB(strconv.Itoa(p)); err == nil && v > peak {
				peak = v
			}
		}
		select {
		case <-stop:
			return peak
		case <-t.C:
		}
	}
}

// processTree returns pid and its live descendants, from
// /proc/<pid>/task/<pid>/children; processes that exit mid-walk drop out.
func processTree(pid int) []int {
	out := []int{pid}
	for i := 0; i < len(out); i++ {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%d/children", out[i], out[i]))
		if err != nil {
			continue
		}
		for _, f := range strings.Fields(string(raw)) {
			if c, err := strconv.Atoi(f); err == nil {
				out = append(out, c)
			}
		}
	}
	return out
}

func tailOf(b []byte, n int) string {
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return strings.TrimSpace(string(b))
}

// selfCPU returns this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads a live process's VmHWM ("self" for this one).
func peakRSSMiB(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux platform Go supports.
const clockTick = 100

// procCPU reads a live process's user plus system CPU time from
// /proc/<pid>/stat (10 ms resolution).
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may contain spaces; fields
	// resume after the last ')'. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// serverProc is one running `nbandit serve`.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	drained chan struct{}
	stderr  bytes.Buffer
	reaped  bool
}

// startServer execs `nbandit serve` over dir and returns once /healthz
// answers; by then the server has replay-verified every instance log
// already in dir.
func startServer(ctx context.Context, bin, dir string) (*serverProc, error) {
	t0 := time.Now()
	cmd := command(ctx, bin, "serve", "-addr", "127.0.0.1:0", "-dir", dir)
	s := &serverProc{cmd: cmd, drained: make(chan struct{})}
	cmd.Stderr = &s.stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			// "nbandit serve: listening on 127.0.0.1:NNNN (dir ..., N instances)"
			if rest, ok := strings.CutPrefix(sc.Text(), "nbandit serve: listening on "); ok {
				if a, _, ok := strings.Cut(rest, " "); ok {
					select {
					case addr <- a:
					default:
					}
				}
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.drained:
		s.reaped = true
		err := cmd.Wait()
		return nil, fmt.Errorf("nbandit serve exited before listening (%v): %s", err, tailOf(s.stderr.Bytes(), 800))
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, errors.New("nbandit serve did not listen within 60s")
	}
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			s.kill()
			return nil, errors.New("nbandit serve /healthz did not answer within 60s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

// peakRSSMiB is the server's VmHWM so far.
func (s *serverProc) peakRSSMiB() (float64, error) { return peakRSSMiB(strconv.Itoa(s.pid())) }

// stop interrupts the server (a graceful shutdown: drain, snapshot, sync)
// and waits for it to exit.
func (s *serverProc) stop() (*os.ProcessState, error) {
	if s.reaped {
		return s.cmd.ProcessState, errors.New("nbandit serve already stopped")
	}
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		s.kill()
		return s.cmd.ProcessState, err
	}
	select {
	case <-s.drained:
	case <-time.After(30 * time.Second):
		s.kill()
		return s.cmd.ProcessState, errors.New("nbandit serve did not stop within 30s of SIGINT")
	}
	s.reaped = true
	if err := s.cmd.Wait(); err != nil {
		return s.cmd.ProcessState, fmt.Errorf("nbandit serve: %w: %s", err, tailOf(s.stderr.Bytes(), 800))
	}
	return s.cmd.ProcessState, nil
}

// kill stops the server's process group without ceremony and reaps it,
// unless it was already reaped.
func (s *serverProc) kill() {
	if s.reaped {
		return
	}
	s.reaped = true
	_ = syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL)
	<-s.drained
	_ = s.cmd.Wait()
}
