package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// usage is what the OS reports about one finished child process.
type usage struct {
	Wall   time.Duration
	CPU    time.Duration // user + sys
	PeakMB float64       // peak resident set size
}

func rusageOf(ps *os.ProcessState, wall time.Duration) usage {
	ru, _ := ps.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return usage{Wall: wall}
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{Wall: wall, CPU: cpu, PeakMB: float64(ru.Maxrss) * 1024 / 1e6} // Linux reports KiB
}

// runChild runs one program to completion, returning its stdout, its
// resource usage and the wall time from launch to exit.
func runChild(ctx context.Context, stdin io.Reader, name string, args ...string) ([]byte, usage, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	var out, errb bytes.Buffer
	cmd.Stdin, cmd.Stdout, cmd.Stderr = stdin, &out, &errb
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return nil, usage{}, fmt.Errorf("%s %s: %w: %s", filepath.Base(name), strings.Join(args, " "), err, lastLine(errb.String()))
	}
	return out.Bytes(), rusageOf(cmd.ProcessState, wall), nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// server is a running crnserve child.
type server struct {
	cmd       *exec.Cmd
	base      string // http://host:port of the public listener
	debugBase string // http://host:port of the -debug-addr listener, if any
	done      chan struct{}
	stderr    bytes.Buffer
}

// startServer launches crnserve with args (which must bind 127.0.0.1:0)
// and waits until it prints its listening address and, when withDebug,
// its debug listener address.
func startServer(bin string, withDebug bool, args ...string) (*server, error) {
	cmd := exec.Command(filepath.Join(bin, "crnserve"), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addrs := make(chan string, 2) // one public, at most one debug address
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "crnserve: listening on "); ok {
				addrs <- "public " + a
			}
		}
	}()
	go func() {
		defer readers.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "crnserve: pprof on "); ok {
				addrs <- "debug " + strings.TrimSuffix(strings.Fields(a)[0], "/debug/pprof/,")
			}
			s.stderr.WriteString(line + "\n")
		}
	}()
	go func() {
		// Wait closes the pipes, so it runs only once both readers hit EOF;
		// s.stderr may be read once done is closed.
		readers.Wait()
		_ = cmd.Wait()
		close(s.done)
	}()
	want := 1
	if withDebug {
		want = 2
	}
	timeout := time.After(30 * time.Second)
	for got := 0; got < want; got++ {
		select {
		case a := <-addrs:
			kind, hostport, _ := strings.Cut(a, " ")
			if kind == "public" {
				s.base = "http://" + hostport
			} else {
				s.debugBase = "http://" + hostport
			}
		case <-s.done:
			return nil, fmt.Errorf("crnserve exited during start-up: %s", lastLine(s.stderr.String()))
		case <-timeout:
			s.stop()
			return nil, fmt.Errorf("crnserve did not report its address within 30s")
		}
	}
	return s, nil
}

// stop sends SIGTERM, waits for the process to exit (killing it after 20s)
// and returns its resource usage.
func (s *server) stop() usage {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	return rusageOf(s.cmd.ProcessState, 0)
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// procCPU reads a live process's user+sys CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3, utime
	// and stime are fields 14 and 15, in clock ticks (100 per second).
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procPeakMB reads a live process's peak resident set size (VmHWM).
func procPeakMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(v)[0], 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeak restarts the kernel's peak-RSS counter (VmHWM) of a live
// process at its current RSS.
func resetPeak(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// peakWindows reads a live process's peak RSS once per window, resetting
// the counter after each read, until stop is closed, and returns one peak
// per whole window.
func peakWindows(pid int, window time.Duration, stop <-chan struct{}) ([]float64, error) {
	if err := resetPeak(pid); err != nil {
		return nil, err
	}
	t := time.NewTicker(window)
	defer t.Stop()
	var peaks []float64
	for {
		select {
		case <-stop:
			return peaks, nil
		case <-t.C:
			mb, err := procPeakMB(pid)
			if err != nil {
				return peaks, err
			}
			peaks = append(peaks, mb)
			if err := resetPeak(pid); err != nil {
				return peaks, err
			}
		}
	}
}

// freePort picks a currently unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}
