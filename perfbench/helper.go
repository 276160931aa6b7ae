package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The live workload's process tree is made of this binary re-executed as a
// helper, selected by environment so the same code serves the benchmark
// binary and its test binary:
//
//	PERFBENCH_HELPER=root  allocate MiB, start one leaf per further plan
//	                       entry, wait for them; exit 0 only if all did
//	PERFBENCH_HELPER=leaf  allocate MiB, hold it until the deadline, exit 0
//	PERFBENCH_HELPER=probe print own RSS in bytes after allocating MiB
const (
	envHelper   = "PERFBENCH_HELPER"
	envMiB      = "PERFBENCH_HELPER_MIB"      // root: comma list, root first
	envDeadline = "PERFBENCH_HELPER_DEADLINE" // unix nanos to hold until
)

// helperMain runs the helper role named in the environment and reports
// whether there was one; the caller exits with the returned code.
func helperMain() (code int, isHelper bool) {
	role := os.Getenv(envHelper)
	if role == "" {
		return 0, false
	}
	if err := runHelper(role); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench helper %s: %v\n", role, err)
		return 1, true
	}
	return 0, true
}

func runHelper(role string) error {
	mibs, err := parseMiBs(os.Getenv(envMiB))
	if err != nil {
		return err
	}
	deadline, err := strconv.ParseInt(os.Getenv(envDeadline), 10, 64)
	if err != nil {
		return fmt.Errorf("bad %s: %w", envDeadline, err)
	}
	mem := touch(mibs[0])
	defer runtime.KeepAlive(mem)
	switch role {
	case "probe":
		rss, err := selfRSS()
		if err != nil {
			return err
		}
		fmt.Println(rss)
		return nil
	case "leaf":
		time.Sleep(time.Until(time.Unix(0, deadline)))
		return nil
	case "root":
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		var kids []*exec.Cmd
		for _, m := range mibs[1:] {
			c := exec.Command(exe)
			c.Env = helperEnv("leaf", []int{m}, deadline)
			c.Stderr = os.Stderr
			if err := c.Start(); err != nil {
				for _, k := range kids {
					_ = k.Process.Kill()
					_ = k.Wait()
				}
				return err
			}
			kids = append(kids, c)
		}
		var firstErr error
		for _, k := range kids {
			if err := k.Wait(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	return fmt.Errorf("unknown role")
}

// helperEnv is the environment of a helper process: the parent's plus the
// role, its allocation plan, and the hold deadline.
func helperEnv(role string, mibs []int, deadline int64) []string {
	parts := make([]string, len(mibs))
	for i, m := range mibs {
		parts[i] = strconv.Itoa(m)
	}
	return append(os.Environ(),
		envHelper+"="+role,
		envMiB+"="+strings.Join(parts, ","),
		envDeadline+"="+strconv.FormatInt(deadline, 10))
}

// helperTreeCmd returns the root of a live tree whose processes allocate
// mib (root first) and all hold it for hold after the call.
func helperTreeCmd(exe string, mib []int, hold time.Duration) *exec.Cmd {
	c := exec.Command(exe)
	c.Env = helperEnv("root", mib, time.Now().Add(hold).UnixNano())
	c.Stderr = os.Stderr
	return c
}

// probeHelperRSS runs one helper that allocates nothing and returns its RSS.
func probeHelperRSS(exe string) (int64, error) {
	c := exec.Command(exe)
	c.Env = helperEnv("probe", []int{0}, 0)
	c.Stderr = os.Stderr
	out, err := c.Output()
	if err != nil {
		return 0, fmt.Errorf("probe helper: %w", err)
	}
	return strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
}

func parseMiBs(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		m, err := strconv.Atoi(f)
		if err != nil || m < 0 {
			return nil, fmt.Errorf("bad %s %q", envMiB, s)
		}
		out = append(out, m)
	}
	return out, nil
}

// touch allocates mib MiB and writes every page so it is resident.
func touch(mib int) []byte {
	b := make([]byte, mib<<20)
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	return b
}

// selfRSS reads this process's resident set from /proc.
func selfRSS() (int64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm")
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize()), err
}
