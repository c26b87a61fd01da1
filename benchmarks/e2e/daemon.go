package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Drain budgets: servd's default -drain and workerd's fixed shutdown
// budget, plus slack for process exit.
const (
	servdDrain   = 10*time.Second + 2*time.Second
	workerdDrain = 5*time.Second + 2*time.Second
)

// buildDaemons compiles cmd/servd and cmd/workerd from the repository
// at repo into dir.
func buildDaemons(ctx context.Context, repo, dir string) error {
	for _, name := range []string{"servd", "workerd"} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name)
		cmd.Dir = repo
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go build ./cmd/%s: %v\n%s", name, err, out)
		}
	}
	return nil
}

// findRepo walks up from the working directory to the repository root:
// the first directory holding cmd/servd.
func findRepo() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "servd")); err == nil && st.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (a directory with cmd/servd) above the working directory")
		}
		dir = parent
	}
}

// daemon is one spawned servd or workerd process.
type daemon struct {
	name string
	cmd  *exec.Cmd
	addr string // host:port it listens on
	out  *watchWriter
	done chan struct{} // closed when the process has been waited for
	err  error         // Wait's result, valid after done
}

// watchWriter collects a daemon's output and reports the address from
// its "<name> listening on <addr>" line.
type watchWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	found chan string
	sent  bool
}

func (w *watchWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.buf.Len() < 1<<16 {
		w.buf.Write(p)
	}
	text := w.buf.String()
	if end := strings.LastIndexByte(text, '\n'); !w.sent && end >= 0 {
		for _, line := range strings.Split(text[:end], "\n") {
			if _, addr, ok := strings.Cut(line, " listening on "); ok {
				w.sent = true
				w.found <- strings.TrimSpace(addr)
				break
			}
		}
	}
	return len(p), nil
}

func (w *watchWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startDaemon spawns bin with args and waits until it prints its
// listening address. The child is killed if this process dies.
func startDaemon(bin string, args ...string) (*daemon, error) {
	out := &watchWriter{found: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = out
	cmd.Stderr = out
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{name: filepath.Base(bin), cmd: cmd, out: out, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	select {
	case d.addr = <-out.found:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("%s exited before listening: %v\n%s", d.name, d.err, out)
	case <-time.After(15 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s did not report a listening address\n%s", d.name, out)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM and requires a clean exit (status 0) within budget.
func (d *daemon) stop(budget time.Duration) error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("%s: SIGTERM: %w", d.name, err)
	}
	select {
	case <-d.done:
	case <-time.After(budget):
		d.kill()
		return fmt.Errorf("%s did not exit within %v of SIGTERM", d.name, budget)
	}
	if d.err != nil {
		return fmt.Errorf("%s exited uncleanly after SIGTERM: %v\n%s", d.name, d.err, d.out)
	}
	return nil
}

// kill ends the process unconditionally and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// cluster is one servd plus its workerd backends, all on loopback, with
// journal and cache directory under dir.
type cluster struct {
	dir     string
	servd   *daemon
	workers []*daemon
	flags   []string // servd flags, for the run record
}

// startCluster spawns the daemons and waits until every /healthz
// answers 200.
func startCluster(ctx context.Context, hc *http.Client, binDir, dir string, backends int) (*cluster, error) {
	cl := &cluster{dir: dir}
	for i := 0; i < backends; i++ {
		w, err := startDaemon(filepath.Join(binDir, "workerd"), "-addr", "127.0.0.1:0", "-slots", "1")
		if err != nil {
			cl.kill()
			return nil, err
		}
		cl.workers = append(cl.workers, w)
	}
	cl.flags = []string{"-addr", "127.0.0.1:0", "-journal", filepath.Join(dir, "jobs.journal"), "-cache-dir", filepath.Join(dir, "cache")}
	for _, w := range cl.workers {
		cl.flags = append(cl.flags, "-backend", "http://"+w.addr)
	}
	s, err := startDaemon(filepath.Join(binDir, "servd"), cl.flags...)
	if err != nil {
		cl.kill()
		return nil, err
	}
	cl.servd = s
	for _, d := range cl.all() {
		if err := waitHealthy(ctx, hc, "http://"+d.addr); err != nil {
			cl.kill()
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
	}
	return cl, nil
}

func (cl *cluster) base() string { return "http://" + cl.servd.addr }

func (cl *cluster) all() []*daemon {
	var ds []*daemon
	if cl.servd != nil {
		ds = append(ds, cl.servd)
	}
	return append(ds, cl.workers...)
}

// stop shuts servd down first (it drains its jobs, which may still
// call the workers), then the workers; each must exit 0 in its budget.
func (cl *cluster) stop() error {
	var errs []error
	if cl.servd != nil {
		errs = append(errs, cl.servd.stop(servdDrain))
	}
	for _, w := range cl.workers {
		errs = append(errs, w.stop(workerdDrain))
	}
	return errors.Join(errs...)
}

// kill ends every daemon without the drain check (error paths).
func (cl *cluster) kill() {
	for _, d := range cl.all() {
		d.kill()
	}
}

// cpu is user+system CPU of all the cluster's processes so far.
func (cl *cluster) cpu() (servd, workers time.Duration, err error) {
	if servd, err = procCPU(cl.servd.pid()); err != nil {
		return 0, 0, err
	}
	for _, w := range cl.workers {
		t, err := procCPU(w.pid())
		if err != nil {
			return 0, 0, err
		}
		workers += t
	}
	return servd, workers, nil
}

// hwmKB sums the peak resident set size of all the cluster's processes.
func (cl *cluster) hwmKB() (int64, error) {
	var sum int64
	for _, d := range cl.all() {
		kb, err := procStatusKB(d.pid(), "VmHWM")
		if err != nil {
			return 0, err
		}
		sum += kb
	}
	return sum, nil
}

func waitHealthy(ctx context.Context, hc *http.Client, base string) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("/healthz not 200 within 15s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100 on
// every mainstream Linux build.
const clockTick = 10 * time.Millisecond

// procCPU reads utime+stime of a process from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a stat line.
// The command name in field 2 may contain spaces, so fields are counted
// after its closing parenthesis.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procStatusKB reads one "<field>: <n> kB" line of /proc/<pid>/status.
func procStatusKB(pid int, field string) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
