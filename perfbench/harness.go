package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is a child process of the benchmark: simweb or minaret-server.
type proc struct {
	cmd  *exec.Cmd
	out  string // stdout capture file
	done chan struct{}
	err  error
}

// start launches bin with args, sending stdout and stderr to files in
// dir named after tag.
func start(dir, tag, bin string, args ...string) (*proc, error) {
	outPath := filepath.Join(dir, tag+".out")
	out, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, tag+".log"))
	if err != nil {
		out.Close()
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = out, logf
	// A benchmark killed from outside takes its children with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		out.Close()
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", tag, err)
	}
	p := &proc{cmd: cmd, out: outPath, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		out.Close()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop sends SIGTERM, escalates to SIGKILL after grace, and returns
// once the process has been reaped.
func (p *proc) stop(grace time.Duration) {
	if p == nil || p.exited() {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(grace):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// waitLine polls the stdout capture for a line starting with prefix and
// returns the rest of it.
func (p *proc) waitLine(prefix string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if f, err := os.Open(p.out); err == nil {
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
					f.Close()
					return strings.TrimSpace(rest), nil
				}
			}
			f.Close()
		}
		if p.exited() {
			return "", fmt.Errorf("process exited before printing %q: %v", prefix, p.err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return "", fmt.Errorf("timed out waiting for %q", prefix)
}

// waitHTTP polls url until it answers 200.
func waitHTTP(c *http.Client, p *proc, url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := c.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if p.exited() {
			return fmt.Errorf("process exited before %s answered: %v", url, p.err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("timed out waiting for %s", url)
}

// startSimweb runs cmd/simweb on the saved corpus and returns its base
// URL once it serves.
func startSimweb(dir, bin, corpusPath string, mutate bool, c *http.Client) (*proc, string, error) {
	args := []string{"-addr", "127.0.0.1:0", "-load-corpus", corpusPath}
	if mutate {
		args = append(args, "-mutate")
	}
	p, err := start(dir, "simweb", bin, args...)
	if err != nil {
		return nil, "", err
	}
	addr, err := p.waitLine("simulated scholarly web on", 60*time.Second)
	if err == nil {
		err = waitHTTP(c, p, "http://"+addr+"/healthz", 30*time.Second)
	}
	if err != nil {
		p.stop(time.Second)
		return nil, "", fmt.Errorf("simweb: %w", err)
	}
	return p, "http://" + addr, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux the benchmark targets.
const clockTick = 100

// procCPU returns the user+system CPU time a process has used.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat cpu fields")
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS sets this process's VmHWM back to its current resident
// set (proc(5), /proc/<pid>/clear_refs).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM (peak resident set) of a process, in MiB.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
