// Command lfm is the command-line front end of the LFM reproduction: one
// binary whose subcommands are the stages of the paper's pipeline and the
// tools that check it.
//
// Usage:
//
//	lfm bench     [-quick] [-seed N] [experiment ...]   paper figures, sweeps, chaos and obs runs
//	lfm diff      compare|explain|gate ...              differential run-archive gate
//	lfm prof      TELEMETRY.jsonl                       render a telemetry export
//	lfm report    OBS.jsonl                             render an observability stream
//	lfm scenario  list|describe|run|record|replay|export ...
//	lfm trace     TRACE                                 critical path of a span trace
//	lfm run       [-mem MB] ... -- command [args...]    live function monitor (§VI-B1)
//	lfm pydeps    file.py ...                           static dependency analysis (§V-B)
//	lfm envpack   -o env.tar.gz SPEC ...                environment packing (§V-C)
//
// Run `lfm SUBCOMMAND -h` for a subcommand's flags. The renderers (prof,
// report, trace) read standard input for a file argument of "-", and the
// text and JSON outputs named by flags take "-" for standard output.
//
// Exit status: 0 success, 1 operational error, 2 usage, 3 verdict (the
// run worked and its check failed: a regression, an invariant breach or an
// unhealthy run). `lfm run` exits with the monitored command's status, or
// 125 when the monitor kills it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// handler runs one subcommand on the arguments that follow its name.
type handler func(args []string, stdout, stderr io.Writer) error

var commands = map[string]handler{
	"bench":    cmdBench,
	"diff":     cmdDiff,
	"prof":     cmdProf,
	"report":   cmdReport,
	"scenario": cmdScenario,
	"trace":    cmdTrace,
	"run":      cmdRun,
	"pydeps":   cmdPydeps,
	"envpack":  cmdEnvpack,
}

const usage = `usage: lfm SUBCOMMAND [flags] [args]
subcommands: bench diff prof report scenario trace run pydeps envpack
run 'lfm SUBCOMMAND -h' for a subcommand's flags
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one command line and returns its exit status, printing the
// error that caused a nonzero status unless it was reported already.
func run(args []string, stdout, stderr io.Writer) int {
	err := dispatch("lfm", usage, commands, args, stdout, stderr)
	status := exitStatus(err)
	if status != 0 && !errors.As(err, new(exitCode)) {
		name := "lfm"
		if len(args) > 0 && commands[args[0]] != nil {
			name += " " + args[0]
		}
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
	}
	return status
}

// exitStatus maps a subcommand's error to the process exit status.
func exitStatus(err error) int {
	var code exitCode
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &code):
		return int(code)
	case errors.As(err, new(verdictError)):
		return 3
	}
	return 1
}

// verdictError marks a run that worked but failed its check: a metric
// regression, a broken invariant, a diverged replay digest or an unhealthy
// verdict. It exits 3, so CI can tell "the run regressed" apart from "the
// tool fell over" (1).
type verdictError string

func (e verdictError) Error() string { return string(e) }

func verdictf(format string, args ...any) error {
	return verdictError(fmt.Sprintf(format, args...))
}

// exitCode is an exit status whose cause has already been reported: the
// usage text of a malformed command line, per-file errors, or the status
// of the command `lfm run` monitored.
type exitCode int

func (c exitCode) Error() string { return fmt.Sprintf("exit status %d", int(c)) }

// errUsage reports a malformed command line after its usage text.
const errUsage = exitCode(2)

// dispatch runs the subcommand named by the first argument that is not a
// flag. name's flag set defines no flags, so a flag before the subcommand
// is either -h or a usage error.
func dispatch(name, usage string, cmds map[string]handler, args []string, stdout, stderr io.Writer) error {
	fs := newFlags(name, stderr)
	fs.Usage = func() { fmt.Fprint(stderr, usage) }
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return errUsage
	}
	cmd, ok := cmds[fs.Arg(0)]
	if !ok {
		fmt.Fprintf(stderr, "%s: unknown command %q\n", name, fs.Arg(0))
		fs.Usage()
		return errUsage
	}
	return cmd(fs.Args()[1:], stdout, stderr)
}

// newFlags returns a flag set that reports to stderr and leaves exiting to
// main.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseFlags parses args into fs. The flag package has already printed the
// usage when it fails: -h returns flag.ErrHelp (exit 0), anything else
// errUsage.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	return nil
}

// parseArgs lets subcommands accept their positional arguments before or
// after the flags (the flag package stops at the first non-flag token):
// leading non-flag tokens are peeled off, the rest are flag-parsed, and any
// trailing positionals are appended.
func parseArgs(fs *flag.FlagSet, args []string) ([]string, error) {
	var pos []string
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		pos = append(pos, args[0])
		args = args[1:]
	}
	if err := parseFlags(fs, args); err != nil {
		return nil, err
	}
	return append(pos, fs.Args()...), nil
}

// openInput opens path for reading, "-" meaning standard input.
func openInput(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

// writeTo creates path ("-" for stdout) and fills it with write, reporting
// the first error from either the write or the close.
func writeTo(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSON writes v as indented JSON to path ("-" for stdout).
func writeJSON(path string, stdout io.Writer, v any) error {
	return writeTo(path, stdout, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
