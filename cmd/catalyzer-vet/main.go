// Command catalyzer-vet runs the repo's invariant-enforcement suite
// (internal/analysis) over the module: wallclock, ctxflow, typederr,
// lockdiscipline, maporder, trackedgo and faultsite. It exits non-zero
// if any diagnostic survives //lint:allow suppression, so `make lint` /
// CI fail on invariant regressions.
//
// Usage:
//
//	catalyzer-vet [-run name,name] [-format text|github] [pattern ...]
//
// Patterns are import paths or "./..." (the default) for the whole
// module. Whole-module runs mark the suite Complete, enabling absence
// checks (faultsite's "declared but never drawn"); explicit package
// patterns leave those checks off rather than false-positive on a
// partial view. Test files are not analyzed: the invariants guard
// production code, and tests (chaos, stress) violate them on purpose.
//
// -format=github emits GitHub Actions workflow annotations
// (::error file=...) so CI findings land on the offending line in the
// pull-request diff.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"strings"

	"catalyzer/internal/analysis"
	"catalyzer/internal/analysis/ctxflow"
	"catalyzer/internal/analysis/faultsite"
	"catalyzer/internal/analysis/lockdiscipline"
	"catalyzer/internal/analysis/maporder"
	"catalyzer/internal/analysis/trackedgo"
	"catalyzer/internal/analysis/typederr"
	"catalyzer/internal/analysis/wallclock"
)

// analyzers returns a fresh instance of the full suite. Stateful
// analyzers (faultsite) accumulate across packages, so the slice is
// built per run rather than shared in a package var.
func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		wallclock.Analyzer,
		ctxflow.Analyzer,
		typederr.Analyzer,
		lockdiscipline.Analyzer,
		maporder.Analyzer,
		trackedgo.Analyzer,
		faultsite.New(),
	}
}

func main() {
	runList := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	format := flag.String("format", "text", "diagnostic output format: text or github (GitHub Actions ::error annotations)")
	flag.Parse()

	all := analyzers()

	if *list {
		for _, a := range all {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	var emit func(pos token.Position, analyzer, msg string)
	switch *format {
	case "text":
		emit = func(pos token.Position, analyzer, msg string) {
			fmt.Printf("%s: [%s] %s\n", pos, analyzer, msg)
		}
	case "github":
		emit = func(pos token.Position, analyzer, msg string) {
			// GitHub annotation values must stay on one line; the message
			// body allows %0A escapes but we never emit newlines anyway.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=catalyzer-vet %s::%s\n",
				pos.Filename, pos.Line, pos.Column, analyzer, msg)
		}
	default:
		fmt.Fprintf(os.Stderr, "catalyzer-vet: unknown format %q (want text or github)\n", *format)
		os.Exit(2)
	}

	selected := all
	if *runList != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*runList, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "catalyzer-vet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, modPath, err := analysis.ModuleRootFromGoMod(cwd)
	if err != nil {
		fatal(err)
	}
	loader := analysis.NewLoader(root, modPath)

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// A whole-module pattern makes the run Complete: Finish hooks may
	// then report absences ("declared but never drawn") without a
	// partial view producing false positives.
	complete := false
	var paths []string
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "all":
			complete = true
			ps, err := loader.ModulePackages()
			if err != nil {
				fatal(err)
			}
			paths = append(paths, ps...)
		case strings.HasPrefix(pat, "./"):
			rel := strings.TrimPrefix(pat, "./")
			if rel == "" || rel == "." {
				paths = append(paths, modPath)
			} else {
				paths = append(paths, modPath+"/"+strings.TrimSuffix(rel, "/"))
			}
		default:
			paths = append(paths, pat)
		}
	}

	suite := analysis.NewSuite(loader.Fset, selected, complete)
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fatal(err)
		}
		if err := suite.RunPackage(pkg); err != nil {
			fatal(err)
		}
	}
	diags, bad, err := suite.Finish()
	if err != nil {
		fatal(err)
	}
	failed := false
	for _, m := range bad {
		failed = true
		emit(loader.Fset.Position(m.Pos), "suppression", m.Msg)
	}
	for _, d := range diags {
		failed = true
		emit(loader.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "catalyzer-vet:", err)
	os.Exit(1)
}
