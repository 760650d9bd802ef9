// Command paper reproduces the evaluation of the D-Code paper. With no
// arguments it writes the whole reproduction as one Markdown report: the MDS
// check, the §III-D feature table, Figures 4-7, the §III-D single-failure
// recovery savings and the extension experiments. A subcommand prints one
// section of the report, or one of the figures the report does not draw.
//
// Usage:
//
//	paper [-seed 42] [-ops 2000] [-dops 200] > REPORT.md
//	paper verify   [-p 5,7,11,13] [-codes rdp,hcode,...]             # Theorem 2
//	paper features [-p 13]                                           # §III-D table
//	paper ioload   [-p 5,7,11,13] [-seed 42] [-ops 2000] [-trace FILE] # Figs. 4-5
//	paper readperf [-p 5,7,11,13] [-seed 42] [-ops 2000] [-dops 200] [-latency] # Figs. 6-7
//	paper recovery [-p 7,13]                                         # §III-D saving
//	paper layout   [-code dcode] [-p 7] [-labels KIND | -write S,L | -read S,L [-degraded COL]] # Figs. 1-2
//	paper chain    [-code dcode] [-p 7] [-fail 2,3]                  # Fig. 3
//
// A bad command line exits 2; a failed MDS check or a failed write exits 1.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dcode/internal/codes"
)

// options holds every flag value. A command reads only the fields its flags
// set; the others keep the values the report uses.
type options struct {
	seed      int64
	ops, dops int
	primes    ints
	trace     string
	latency   bool
	codes     codeList
	code      string
	labels    string
	write     ints
	read      ints
	degraded  int
	fail      ints
}

// A command renders one section or figure. primes is its -p default and
// flags names the flags it reads.
type command struct {
	run    func(*bytes.Buffer, *options) error
	primes ints
	flags  []string
}

var commands = map[string]command{
	"verify":   {writeMDS, codes.PaperPrimes, []string{"p", "codes"}},
	"features": {writeFeatures, ints{13}, []string{"p"}},
	"ioload":   {writeIOLoad, codes.PaperPrimes, []string{"p", "seed", "ops", "trace"}},
	"readperf": {writeReadPerf, codes.PaperPrimes, []string{"p", "seed", "ops", "dops", "latency"}},
	"recovery": {writeRecoveryReads, ints{7, 13}, []string{"p"}},
	"layout":   {writeLayout, ints{7}, []string{"p", "code", "labels", "write", "read", "degraded"}},
	"chain":    {writeChain, ints{7}, []string{"p", "code", "fail"}},
}

const usage = `usage: paper [-seed 42] [-ops 2000] [-dops 200] > REPORT.md
       paper verify|features|ioload|readperf|recovery|layout|chain [flags]
`

// reportSections are the report's sections in order, each run at the
// defaults of the command of the same name. The report's recovery table
// leaves out the read counts the recovery command adds.
var reportSections = []struct {
	name string
	run  func(*bytes.Buffer, *options) error
}{
	{"verify", writeMDS},
	{"features", writeFeatures},
	{"ioload", writeIOLoad},
	{"readperf", writeReadPerf},
	{"recovery", writeRecovery},
	{"", writeExtension},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one command line and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	name, cmd := "", command{run: writeReport, flags: []string{"seed", "ops", "dops"}}
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		c, ok := commands[args[0]]
		if !ok {
			fmt.Fprintf(stderr, "paper: unknown command %q\n%s", args[0], usage)
			return 2
		}
		name, cmd, args = args[0], c, args[1:]
	}
	o := options{seed: 42, ops: 2000, dops: 200, primes: cmd.primes, codes: codes.All(), code: "dcode", degraded: -1, fail: ints{2, 3}}
	fs := o.flagSet(name, cmd.flags)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "paper: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.ops < 1 || o.dops < 1 {
		fmt.Fprintf(stderr, "paper: -ops and -dops want at least 1, got %d and %d\n", o.ops, o.dops)
		return 2
	}
	// Output reaches stdout only from a run that finished, or that failed
	// just the MDS check, so a bad command line prints nothing there.
	var out bytes.Buffer
	err := cmd.run(&out, &o)
	if err == nil || errors.Is(err, errNotMDS) {
		if _, werr := out.WriteTo(stdout); werr != nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "paper:", err)
		if errors.As(err, new(usageError)) {
			return 2
		}
		return 1
	}
	return 0
}

// flagSet defines every flag of the binary in one place and hands a command
// only the flags it reads.
func (o *options) flagSet(name string, names []string) *flag.FlagSet {
	all := flag.NewFlagSet("", flag.ContinueOnError)
	all.Int64Var(&o.seed, "seed", o.seed, "experiment seed")
	all.IntVar(&o.ops, "ops", o.ops, "operations per workload / normal-mode experiment")
	all.IntVar(&o.dops, "dops", o.dops, "operations per degraded failure case")
	all.Var(&o.primes, "p", "comma-separated primes")
	all.StringVar(&o.trace, "trace", "", "replay a kind,S,L,T trace file instead of the three workloads")
	all.BoolVar(&o.latency, "latency", false, "add per-op latency percentiles [p50/p95/p99 ms]")
	all.Var(&o.codes, "codes", "comma-separated codes to verify")
	all.StringVar(&o.code, "code", o.code, "code id")
	all.StringVar(&o.labels, "labels", "", "label the groups of one parity kind: horizontal, deployment, diagonal, anti-diagonal")
	all.Var(&o.write, "write", "S,L: draw the parity footprint of a partial stripe write")
	all.Var(&o.read, "read", "S,L: draw a read footprint (with -degraded, the recovery reads too)")
	all.IntVar(&o.degraded, "degraded", o.degraded, "failed column for -read")
	all.Var(&o.fail, "fail", "one or two columns to fail")

	fs := flag.NewFlagSet(strings.TrimSpace("paper "+name), flag.ContinueOnError)
	for _, n := range names {
		f := all.Lookup(n)
		fs.Var(f.Value, f.Name, f.Usage)
	}
	if name == "" {
		fs.Usage = func() { fmt.Fprint(fs.Output(), usage) }
	}
	return fs
}

// usageError marks an error in the command line rather than in the run.
type usageError struct{ error }

func usagef(format string, a ...any) error {
	return usageError{fmt.Errorf(format, a...)}
}

// ints is a comma-separated list flag, such as -p 5,7,11,13 or -write 16,5.
type ints []int

func (v *ints) String() string {
	s := make([]string, len(*v))
	for i, x := range *v {
		s[i] = strconv.Itoa(x)
	}
	return strings.Join(s, ",")
}

func (v *ints) Set(s string) error {
	var out ints
	for _, part := range strings.Split(s, ",") {
		x, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("bad integer %q", part)
		}
		out = append(out, x)
	}
	*v = out
	return nil
}

// codeList is the -codes flag: comma-separated code ids.
type codeList []codes.Entry

func (l *codeList) String() string {
	ids := make([]string, len(*l))
	for i, e := range *l {
		ids[i] = e.ID
	}
	return strings.Join(ids, ",")
}

func (l *codeList) Set(s string) error {
	var out codeList
	for _, id := range strings.Split(s, ",") {
		e, err := codes.ByID(strings.TrimSpace(id))
		if err != nil {
			return err
		}
		out = append(out, e)
	}
	*l = out
	return nil
}
