package main

// The SLO subcommands: `raiadmin health` scrapes a deployment's metrics
// endpoints once, evaluates the declared objectives with the burn-rate
// engine, and prints one line per objective; `raiadmin alerts` prints
// only the firing burn-rate rules. Both exit 0 when clean, 1 on a
// breach (or when nothing could be scraped), and 2 on usage errors, so
// they slot directly into cron jobs, CI gates, and deploy scripts.
//
// A single scrape carries each counter's lifetime totals, which the
// engine treats as the rates since daemon start — meaningful without a
// prior baseline. A long-running evaluation with real trailing windows
// lives in `raiadmin collect -slo-scrape`.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rai/internal/slo"
)

// newSLOEngine builds an engine from a -slo config path (empty = the
// built-in objectives and SRE-workbook rules).
func newSLOEngine(path string) (*slo.Engine, error) {
	if path == "" {
		return slo.NewEngine(nil), nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg, err := slo.ParseConfig(data)
	if err != nil {
		return nil, err
	}
	var opts []slo.Option
	if len(cfg.Rules) > 0 {
		opts = append(opts, slo.WithRules(cfg.Rules))
	}
	return slo.NewEngine(cfg.Objectives, opts...), nil
}

// evalOnce scrapes every URL, folds the successful snapshots into one
// observation, and evaluates. Endpoints that fail are reported on
// stderr; an all-endpoints-down round is an error, never a false green.
func evalOnce(ctx context.Context, name, sloPath string, urls []string, stderr io.Writer) ([]slo.ObjectiveStatus, error) {
	engine, err := newSLOEngine(sloPath)
	if err != nil {
		return nil, err
	}
	n, err := engine.Scrape(ctx, urls)
	if err != nil {
		for _, line := range strings.Split(err.Error(), "\n") {
			fmt.Fprintf(stderr, "raiadmin %s: %s\n", name, line)
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("no metrics endpoint could be scraped")
	}
	return engine.Evaluate(), nil
}

// health evaluates the deployment's SLOs from one scrape round.
func health(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raiadmin health", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sloPath := fs.String("slo", "", "SLO config JSON (empty = the built-in objectives)")
	asJSON := fs.Bool("json", false, "emit the full per-objective evaluation as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: raiadmin health [-slo config.json] [-json] URL [URL...]")
		return 2
	}
	statuses, err := evalOnce(ctx, "health", *sloPath, fs.Args(), stderr)
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin health: %v\n", err)
		return 1
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(statuses); err != nil {
			fmt.Fprintf(stderr, "raiadmin health: %v\n", err)
			return 1
		}
	} else {
		fmt.Fprint(stdout, slo.Format(statuses))
	}
	if !slo.Healthy(statuses) {
		return 1
	}
	return 0
}

// alerts prints only the firing burn-rate rules — empty output and exit
// 0 is the healthy steady state a cron job wants.
func alerts(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raiadmin alerts", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sloPath := fs.String("slo", "", "SLO config JSON (empty = the built-in objectives)")
	asJSON := fs.Bool("json", false, "emit firing rules as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: raiadmin alerts [-slo config.json] [-json] URL [URL...]")
		return 2
	}
	statuses, err := evalOnce(ctx, "alerts", *sloPath, fs.Args(), stderr)
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin alerts: %v\n", err)
		return 1
	}
	type firing struct {
		Objective string  `json:"objective"`
		Rule      string  `json:"rule"`
		LongBurn  float64 `json:"long_burn"`
		ShortBurn float64 `json:"short_burn"`
		Threshold float64 `json:"threshold"`
	}
	var out []firing
	for _, st := range statuses {
		for _, rs := range st.Rules {
			if rs.Firing {
				out = append(out, firing{
					Objective: st.Name, Rule: rs.Rule.Name,
					LongBurn: rs.LongBurn, ShortBurn: rs.ShortBurn, Threshold: rs.Rule.Burn,
				})
			}
		}
	}
	if *asJSON {
		if out == nil {
			out = []firing{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "raiadmin alerts: %v\n", err)
			return 1
		}
	} else {
		for _, f := range out {
			fmt.Fprintf(stdout, "%s %s burn long=%.1f short=%.1f threshold=%.1f\n",
				f.Objective, f.Rule, f.LongBurn, f.ShortBurn, f.Threshold)
		}
	}
	if len(out) > 0 {
		return 1
	}
	return 0
}
