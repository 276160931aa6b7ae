package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"lfm"
)

// cmdPydeps performs the paper's static dependency analysis (§V-B) on real
// Python source files: it parses each file, finds import statements (and
// dynamic-import calls) at module level or within one function, maps
// import names to distributions via the built-in catalog, and prints the
// minimal requirement list. A file that fails is reported and skipped; the
// exit status is then 1.
func cmdPydeps(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("lfm pydeps", stderr)
	funcName := fs.String("func", "", "analyze only this function's body")
	apps := fs.String("apps", "", "analyze every function with this decorator (e.g. python_app)")
	reqOut := fs.String("o", "", "write the requirement list to this file (requires -func)")
	extract := fs.Bool("extract", false, "also print the function's extracted source (requires -func)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: lfm pydeps [-func NAME | -apps DECORATOR] file.py ...")
		fs.PrintDefaults()
	}
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return errUsage
	}

	ix := lfm.DefaultCatalog()
	var status error
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "lfm pydeps: %v\n", err)
			status = exitCode(1)
			continue
		}
		if err := analyze(stdout, path, string(src), ix, *funcName, *apps, *reqOut, *extract); err != nil {
			fmt.Fprintf(stderr, "lfm pydeps: %s: %v\n", path, err)
			status = exitCode(1)
		}
	}
	return status
}

func analyze(out io.Writer, path, src string, ix *lfm.PackageIndex, funcName, apps, reqOut string, extract bool) error {
	fmt.Fprintf(out, "%s:\n", path)
	switch {
	case apps != "":
		reps, err := lfm.AnalyzeAppFunctions(src, ix, apps)
		if err != nil {
			return err
		}
		if len(reps) == 0 {
			fmt.Fprintf(out, "  no functions decorated with @%s\n", apps)
			return nil
		}
		for name, rep := range reps {
			fmt.Fprintf(out, "  @%s def %s:\n", apps, name)
			printReport(out, rep, "    ")
		}
	case funcName != "":
		rep, err := lfm.AnalyzeFunction(src, funcName, ix, nil)
		if err != nil {
			return err
		}
		printReport(out, rep, "  ")
		if reqOut != "" {
			if err := writeTo(reqOut, out, func(f io.Writer) error {
				return lfm.WriteRequirements(f, rep)
			}); err != nil {
				return err
			}
			fmt.Fprintf(out, "  wrote %s\n", reqOut)
		}
		if extract {
			code, err := lfm.ExtractFunctionSource(src, funcName)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "  extracted source:\n")
			for _, line := range strings.Split(strings.TrimRight(code, "\n"), "\n") {
				fmt.Fprintf(out, "  | %s\n", line)
			}
		}
	default:
		rep, err := lfm.AnalyzeSource(src, ix, nil)
		if err != nil {
			return err
		}
		printReport(out, rep, "  ")
	}
	return nil
}

func printReport(out io.Writer, rep *lfm.DependencyReport, indent string) {
	if len(rep.Distributions) > 0 {
		fmt.Fprintf(out, "%srequirements:\n", indent)
		for _, d := range rep.Distributions {
			fmt.Fprintf(out, "%s  %s\n", indent, d.String())
		}
	}
	if len(rep.Stdlib) > 0 {
		fmt.Fprintf(out, "%sstdlib: %v\n", indent, rep.Stdlib)
	}
	for _, u := range rep.Unknown {
		fmt.Fprintf(out, "%sWARNING: unknown module %q\n", indent, u)
	}
	for _, d := range rep.Dynamic {
		if d.Module == "" {
			fmt.Fprintf(out, "%sWARNING: line %d: dynamic %s with non-literal argument\n",
				indent, d.Line, d.Call)
		}
	}
	if rep.RelativeImports > 0 {
		fmt.Fprintf(out, "%s%d relative import(s) resolve within the source tree\n",
			indent, rep.RelativeImports)
	}
}
