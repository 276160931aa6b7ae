package main

import (
	"fmt"
	"io"
	"os"

	"lfm"
)

// cmdEnvpack resolves requirement specs against the built-in package
// catalog and packs the resulting environment into a real relocatable
// .tar.gz — the conda + conda-pack pipeline of the paper's §V-C.
//
//	lfm envpack -o env.tar.gz "numpy>=1.18" scipy
//	lfm envpack -inspect env.tar.gz
//	lfm envpack -unpack env.tar.gz -dir ./env [-prefix /scratch/env]
func cmdEnvpack(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("lfm envpack", stderr)
	out := fs.String("o", "env.tar.gz", "output tarball path")
	name := fs.String("name", "env", "environment name")
	inspect := fs.String("inspect", "", "print the manifest of a packed environment and exit")
	unpack := fs.String("unpack", "", "unpack this environment instead of packing")
	dir := fs.String("dir", "env", "directory for -unpack")
	prefix := fs.String("prefix", "", "relocation prefix applied after -unpack")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	switch {
	case *inspect != "":
		return runInspect(*inspect, stdout)
	case *unpack != "":
		return runUnpack(*unpack, *dir, *prefix, stdout)
	case fs.NArg() == 0:
		fmt.Fprintln(stderr, "usage: lfm envpack -o out.tar.gz SPEC [SPEC ...]")
		return errUsage
	}
	return runPack(*name, *out, fs.Args(), stdout)
}

func runPack(name, out string, specs []string, stdout io.Writer) error {
	ix := lfm.DefaultCatalog()
	res, err := lfm.ResolveEnv(ix, specs...)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "resolved %d packages (%d files, %.1f MB installed)\n",
		res.Len(), res.TotalFiles(), float64(res.TotalInstalledBytes())/1e6)
	for _, p := range res.Packages {
		fmt.Fprintf(stdout, "  %s\n", p.ID())
	}
	tb, err := lfm.Pack(name, res)
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, tb.Data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "packed %s: %d entries, %.1f MB compressed -> %s\n",
		name, tb.Entries, float64(tb.PackedBytes())/1e6, out)
	return nil
}

func runInspect(path string, stdout io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	man, err := lfm.ReadManifest(data)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "environment %q (prefix %s)\n", man.Name, man.Prefix)
	fmt.Fprintf(stdout, "%d packages, %d files, %.1f MB installed\n",
		len(man.Packages), man.TotalFiles, float64(man.TotalBytes)/1e6)
	for _, p := range man.Packages {
		fmt.Fprintf(stdout, "  %s==%s (%d files)\n", p.Name, p.Version, p.FileCount)
	}
	return nil
}

func runUnpack(path, dir, prefix string, stdout io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	man, err := lfm.Unpack(data, dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "unpacked %q into %s\n", man.Name, dir)
	if prefix != "" {
		old, err := lfm.Relocate(dir, prefix)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "relocated prefix %s -> %s\n", old, prefix)
	}
	return nil
}
