package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"lfm"
)

// cmdRun executes a command under a real lightweight function monitor: it
// polls /proc for the whole process tree's memory and CPU use, enforces
// limits by killing the process group, and prints a resource report — the
// paper's §VI-B1 mechanism for live Unix processes. It exits with the
// command's status, or 125 when the monitor killed it.
//
// -top redraws a one-line live view of the monitored tree on stderr: an
// RSS sparkline against the memory limit, the CPU clock, and the process
// count, updated at the poll cadence.
func cmdRun(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("lfm run", stderr)
	memMB := fs.Int64("mem", 0, "memory limit in MB (0 = unlimited)")
	cpuS := fs.Float64("cpu", 0, "CPU-time limit in seconds (0 = unlimited)")
	wallS := fs.Float64("wall", 0, "wall-clock limit in seconds (0 = unlimited)")
	pollMS := fs.Int("poll", 50, "poll interval in milliseconds")
	quiet := fs.Bool("q", false, "suppress the report; exit status only")
	top := fs.Bool("top", false, "live one-line resource view on stderr while the command runs")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: lfm run [-mem MB] [-cpu S] [-wall S] [-poll MS] [-top] -- command [args...]")
		fs.PrintDefaults()
	}
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return errUsage
	}

	cmd := exec.Command(fs.Arg(0), fs.Args()[1:]...)
	cmd.Stdout = stdout
	cmd.Stderr = stderr
	cmd.Stdin = os.Stdin

	limits := lfm.ProcessLimits{
		RSSBytes: *memMB << 20,
		CPUTime:  time.Duration(*cpuS * float64(time.Second)),
		WallTime: time.Duration(*wallS * float64(time.Second)),
	}
	poll := time.Duration(*pollMS) * time.Millisecond

	var rep *lfm.ProcessReport
	var err error
	if *top {
		rep, err = lfm.RunMonitoredObserved(context.Background(), cmd, limits, poll,
			liveLine(limits, stderr))
		fmt.Fprintln(stderr)
	} else {
		rep, err = lfm.RunMonitored(context.Background(), cmd, limits, poll)
	}
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(stderr, "lfm: wall %v, cpu %v, peak rss %.1f MB, max procs %d, polls %d\n",
			rep.WallTime.Round(time.Millisecond), rep.CPUTime.Round(time.Millisecond),
			float64(rep.PeakRSSBytes)/(1<<20), rep.MaxProcs, rep.Polls)
		if rep.Killed {
			fmt.Fprintf(stderr, "lfm: KILLED: %s limit exceeded\n", rep.Exhausted)
		}
	}
	switch {
	case rep.Killed:
		return exitCode(125)
	case rep.ExitCode != 0:
		return exitCode(rep.ExitCode)
	}
	return nil
}

// liveLine returns a sample callback that redraws one status line on w: a
// trailing RSS sparkline, the RSS meter against the memory limit when one
// is set, the accumulated CPU clock, and the tree size.
func liveLine(limits lfm.ProcessLimits, w io.Writer) func(lfm.ProcessSample) {
	var rss []float64
	return func(s lfm.ProcessSample) {
		rss = append(rss, float64(s.RSSBytes))
		if len(rss) > 256 {
			rss = rss[len(rss)-256:]
		}
		line := fmt.Sprintf("\r\x1b[Klfm: rss %6.1f MB |%s|",
			float64(s.RSSBytes)/(1<<20), lfm.Sparkline(rss, 24))
		if limits.RSSBytes > 0 {
			line += fmt.Sprintf(" [%s]", lfm.Bar(float64(s.RSSBytes)/float64(limits.RSSBytes), 10))
		}
		line += fmt.Sprintf(" cpu %6.2fs  procs %d", s.CPUTime.Seconds(), s.Procs)
		fmt.Fprint(w, line)
	}
}
