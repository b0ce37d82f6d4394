package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running fem2d process.
type daemon struct {
	cmd  *exec.Cmd
	addr string

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
	done chan struct{}
}

// listenLine is fem2d's start-up log line; its last field is the bound
// address.
var listenLine = regexp.MustCompile(`serving FEM-2 .* on (\S+)$`)

// startDaemon execs bin with args plus an ephemeral loopback address
// and returns once the daemon has logged the address it listens on.
func startDaemon(bin string, args []string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-quiet"}, args...)
	d := &daemon{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addrc := make(chan string, 1)
	go d.drain(stderr, addrc)
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.done:
	case <-time.After(20 * time.Second):
	}
	d.stop()
	return nil, fmt.Errorf("fem2d did not start listening: %s", d.stderrTail())
}

// drain reads the daemon's stderr until it closes, reporting the
// listen address once and keeping the last lines.
func (d *daemon) drain(r io.Reader, addrc chan<- string) {
	defer close(d.done)
	sc := bufio.NewScanner(r)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if m := listenLine.FindStringSubmatch(line); m != nil && !sent {
			addrc <- m[1]
			sent = true
		}
		d.mu.Lock()
		if d.tail = append(d.tail, line); len(d.tail) > 20 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
	}
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not
// exited within 10s, and waits for it.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	err := d.cmd.Wait()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return fmt.Errorf("fem2d exited: %v: %s", err, d.stderrTail())
	}
	return err
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux ABI Go supports.
const clockTicks = 100

// procCPU returns a process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, x := range f[11:13] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// procHWM returns a process's peak resident set size (VmHWM) in bytes.
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// hostCPU is the aggregate /proc/stat cpu line: total and steal ticks.
type hostCPU struct{ total, steal int64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var h hostCPU
	for i, x := range f[1:] {
		v, _ := strconv.ParseInt(x, 10, 64)
		// Fields: user nice system idle iowait irq softirq steal guest
		// guest_nice; guest time is already counted in user.
		if i < 8 {
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// spinSink keeps hostSpin's loop from being optimised away.
var spinSink float64

// hostSpin times a fixed chain of dependent floating-point operations:
// a probe of the host's own speed, which no change to the program can
// move.  Steal shows a hypervisor taking the CPU away; this also shows
// a CPU that runs slower while it has it, as when its hyperthread
// sibling or the memory system is busy with other tenants.
func hostSpin() time.Duration {
	t := time.Now()
	x := 1.0
	for i := 0; i < 10_000_000; i++ {
		x = x*1.0000001 + 1e-9
	}
	spinSink = x
	return time.Since(t)
}

// selfCPU returns the generator's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
