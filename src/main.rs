//! `lp-sram-suite` command-line driver: regenerates any of the paper's
//! artifacts by name.
//!
//! ```text
//! lp-sram-suite <artifact> [--paper] [--jobs <n>] [--checkpoint <file>]
//!               [--trace <file.jsonl>] [--metrics <file.json>] [--progress]
//! lp-sram-suite summary <manifest.json> [--top <k>] [--json] [--traces]
//! lp-sram-suite profile <trace.jsonl> [--top <k>] [--collapsed <out.txt>] [--json]
//! lp-sram-suite compare <old.json> <new.json> [--fail-over <name>=<pct>%]…
//!               [--json] [--all]
//! lp-sram-suite lint [--deny-warnings] [--json] [--rules]
//! lp-sram-suite prove [--json] [--deny-unknown] [--differential] [--metrics <file.json>]
//! lp-sram-suite fuzz-functional [--cases <n>] [--fuzz-seed <u64>]
//! lp-sram-suite fuzz-netlist   [--cases <n>] [--fuzz-seed <u64>]
//!   artifacts: fig4, fig5, table1, table2, table3, array, march,
//!              power-defects, ds-time, monte-carlo, all
//! ```
//!
//! Each artifact prints its report followed by the paper claims it
//! checks, and its stdout is byte for byte its committed `results/`
//! file: `table1`, `fig4`, `table2` and `table3` with `--paper`, the
//! other artifacts as they run by default (`array` also has a
//! `--paper` file).
//!
//! The `fuzz-*` subcommands drive the adversarial harnesses in
//! [`drftest::fuzz`]. Runs are deterministic per seed; a failing
//! property prints the per-case seed and the exact replay command
//! (`--fuzz-seed <case_seed> --cases 1`). The seed and case count are
//! echoed into the `--metrics` manifest so CI failures replay from the
//! artifact alone.
//!
//! `prove` runs the symbolic coverage prover ([`mprove`]): one
//! Proven-Detected / Proven-Escaped / Unknown verdict per (march test,
//! fault class), cross-checked against the paper's claim table, the
//! concrete simulator (escape-counterexample replay), and the
//! functional fuzzer's claim list. `--differential` additionally
//! grades every enumerable fault on 1×8, 2×8, and 16×8 memories and
//! requires exact agreement. Exit code 0 = everything proven, 1 = any
//! claimed-but-unproven result or oracle disagreement (or, under
//! `--deny-unknown`, any Unknown verdict), 2 = usage errors. `--json`
//! prints the claims matrix as JSON on stdout (failures go to
//! stderr), which CI diffs against `results/claims_matrix.json`.
//!
//! `lint` runs the static electrical rule checks (`ERC001`… plus the
//! regulator-family `ERC1xx` rules) over every netlist the campaigns
//! solve, without solving anything. Exit code 0 = clean, 1 = errors,
//! 2 = warnings under `--deny-warnings`; `--rules` prints the rule
//! catalogue instead.
//!
//! `--jobs <n>` fans the campaign grids across `n` worker threads
//! (`0` or omitted = all available cores, `1` = sequential). Every
//! artifact's output is byte-identical for any value — see the
//! executor's determinism contract.
//!
//! `--checkpoint` (table2 only) appends each completed table cell to
//! the given tab-separated file; rerunning with the same path resumes,
//! skipping cells already logged. The file starts with a `#` line
//! naming the options that decide a cell's value, and a file written
//! under other options (the quick grid's, resumed under `--paper`) is
//! refused before any solve: the run prints `error: …` and exits 1.
//!
//! Each subcommand takes only its own flags: `--paper` the five
//! campaigns with a paper grid (`table1`, `fig4`, `table2`, `table3`,
//! `array`), `--jobs` those five plus `monte-carlo` and `all`, and
//! `--cases`/`--fuzz-seed` the `fuzz-*` subcommands. Any other argument,
//! a stray positional included, is a usage error (exit 2) that names
//! it, and so is a missing or unknown artifact or a value that does not
//! parse. A run that fails exits 1.
//!
//! The observability flags are all opt-in — a flag-less run writes no
//! extra files and produces no extra output:
//!
//! * `--trace <file.jsonl>` streams span/point/progress events as one
//!   JSON object per line;
//! * `--metrics <file.json>` writes a [`obs::RunManifest`] at the end
//!   of the run (version, config echo, per-phase timings, solver
//!   histograms, coverage);
//! * `--progress` prints human-readable progress lines on stderr;
//! * `summary <manifest.json>` renders a previously written manifest:
//!   top-k slowest points, retry hot spots, and histogram sketches;
//!   `--traces` appends the convergence flight-recorder digest and
//!   `--json` emits the whole digest machine-readably.
//!
//! `--trace`/`--metrics` also arm the convergence flight recorder:
//! each grid point's per-iteration residual/damping trajectory is
//! ring-buffered and the slowest and all failed points are retained in
//! the manifest.
//!
//! `profile <trace.jsonl>` folds a `--trace` stream into a
//! calling-context tree (self/total wall-clock, call counts, solver
//! iteration attribution) with a self-time hotlist; `--collapsed`
//! additionally writes a collapsed-stack file for flamegraph tooling.
//!
//! `compare <old.json> <new.json>` diffs two run manifests
//! metric-by-metric. `--fail-over march.ops=0%` turns growth beyond a
//! threshold into exit code 1, making CI regression gates one command;
//! exit 2 is reserved for usage/parse errors.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use drftest::case_study::CaseStudy;
use drftest::drv_analysis::Fig4Options;
use drftest::experiments::table1::Table1Options;
use drftest::experiments::{array, fig4, table1, table2, table3};
use drftest::montecarlo_drv::pattern_norm_sigma;
use drftest::{
    ds_time_sweep, monte_carlo_drv, power_defect_table, taxonomy, CoverageOptions, DrfDs,
    MonteCarloOptions, Table2Options,
};
use march::coverage::{grade, standard_fault_list};
use march::library;
use regulator::{Defect, DefectCategory, VrefTap};

/// Exit code of a usage error: a missing or unknown subcommand, an
/// argument the subcommand does not take, a flag without its value, or
/// a value it cannot parse. A run that fails exits 1.
const USAGE_ERROR: u8 = 2;

/// Prints the usage text.
fn print_usage() {
    eprintln!(
        "usage: lp-sram-suite <artifact> [--paper] [--jobs <n>] [--checkpoint <file>]\n\
         \x20                            [--trace <file.jsonl>] [--metrics <file.json>] [--progress]\n\
         \x20      lp-sram-suite summary <manifest.json> [--top <k>] [--json] [--traces]\n\
         \x20      lp-sram-suite profile <trace.jsonl> [--top <k>] [--collapsed <out.txt>] [--json]\n\
         \x20      lp-sram-suite compare <old.json> <new.json> [--fail-over <name>=<pct>%]... [--json] [--all]\n\
         artifacts:\n\
           fig4          DRV vs single-transistor Vth variation\n\
           fig5          defect classification (colour coding)\n\
           table1        case-study retention voltages\n\
           table2        minimum defect resistances\n\
           table3        optimized test flow + coverage matrix\n\
           array         full-array retention map, block-Schur reduction\n\
         \x20             (64x8 by default, the paper's 4096x64 with --paper)\n\
           march         March algorithm comparison\n\
           power-defects category-1 (power) defect characterization\n\
           ds-time       deep-sleep dwell-time sweep\n\
           monte-carlo   random-mismatch DRV distribution\n\
           all           everything above with fast settings\n\
         --paper (table1, fig4, table2, table3, array): the paper's grid\n\
         --jobs <n> (those five, monte-carlo, all): worker threads\n\
         \x20    (0/omitted = all cores, 1 = sequential); output is\n\
         \x20    byte-identical for any value\n\
         --checkpoint <file> (table2): log completed cells and resume\n\
         --trace <file.jsonl>:  stream span/point/progress events\n\
         --metrics <file.json>: write the run manifest at exit\n\
         --progress:            human-readable progress on stderr\n\
         summary <manifest.json>: render a manifest written by --metrics\n\
         \x20    (--traces: convergence flight-recorder digest; --json: machine-readable)\n\
         profile <trace.jsonl>: fold a --trace stream into a call tree + hotlist\n\
         \x20    (--collapsed <out.txt>: flamegraph collapsed-stack export)\n\
         compare <old.json> <new.json>: diff two --metrics manifests;\n\
         \x20    --fail-over <metric>=<pct>% exits 1 when growth exceeds the\n\
         \x20    threshold (repeatable; exit 2 = usage/parse error)\n\
         lint [--deny-warnings] [--json] [--rules]:\n\
         \x20    static ERC over the suite's netlists (exit 1 on errors,\n\
         \x20    2 on warnings with --deny-warnings); --rules lists the\n\
         \x20    rule catalogue\n\
         prove [--json] [--deny-unknown] [--differential] [--metrics <file.json>]:\n\
         \x20    symbolic coverage prover over the march library, with the\n\
         \x20    verdicts cross-checked against the paper's claim table, the\n\
         \x20    simulator, and the fuzzer's claims (exit 1 on any unproven\n\
         \x20    claim or disagreement; --deny-unknown also fails Unknowns;\n\
         \x20    --differential grades every enumerable fault exhaustively)\n\
         fuzz-functional [--cases <n>] [--fuzz-seed <u64>]:\n\
         \x20    randomized march-claim tester (n cases per property)\n\
         fuzz-netlist [--cases <n>] [--fuzz-seed <u64>]:\n\
         \x20    ERC-clean netlist fuzzer against the analog solver;\n\
         \x20    failures print a one-command replay seed"
    );
}

/// Default `--cases` per fuzz subcommand: ≥ 1000 functional sequences
/// (12 properties × 96) and 400 netlists, the fuzz-smoke floor now
/// that the fuzzers gate CI by default.
fn default_fuzz_cases(artifact: &str) -> u64 {
    if artifact == "fuzz-netlist" {
        400
    } else {
        96
    }
}

fn run(
    artifact: &str,
    paper: bool,
    jobs: usize,
    checkpoint: Option<&str>,
    fuzz: (u64, Option<u64>),
) -> Result<(), Box<dyn std::error::Error>> {
    let (fuzz_seed, fuzz_cases) = fuzz;
    match artifact {
        "fig4" => {
            let mut opts = if paper {
                Fig4Options::paper()
            } else {
                Fig4Options::quick()
            };
            opts.jobs = jobs;
            let report = fig4::run(&opts)?;
            println!("{report}");
            println!(
                "observation 1 (negative variation on MPcc1/MNcc1 raises DRV_DS1): {}",
                report.data.observation1_holds()
            );
            println!(
                "observation 2 (mirror for DRV_DS0): {}",
                report.data.observation2_holds()
            );
            println!(
                "pass transistors matter less than inverter devices: {}",
                report.data.pass_transistors_matter_less()
            );
        }
        "fig5" => {
            let report = taxonomy(&VrefTap::ALL)?;
            println!("{report}");
            println!(
                "{} of 32 classifications match the paper's Fig. 5 categories",
                report.matching()
            );
        }
        "table1" => {
            let mut opts = if paper {
                Table1Options::paper()
            } else {
                Table1Options::quick()
            };
            opts.jobs = jobs;
            let report = table1::run(&opts)?;
            println!("{report}");
            println!(
                "ordering CS1 > CS2 > CS3 > CS4 holds: {}",
                report.ordering_holds()
            );
        }
        "array" => {
            let mut opts = if paper {
                drftest::ArrayRetentionOptions::paper()
            } else {
                drftest::ArrayRetentionOptions::quick()
            };
            opts.jobs = jobs;
            println!("{}", array::run(&opts)?);
        }
        "table2" => {
            let mut opts = if paper {
                Table2Options::paper()
            } else {
                Table2Options::quick()
            };
            opts.jobs = jobs;
            opts.checkpoint = checkpoint.map(std::path::PathBuf::from);
            let report = table2::run(&opts)?;
            println!("{report}");
            let shape = report.shape_holds();
            println!("CS ordering (CS1 <= CS2 <= CS3): {}", shape.cs_ordering);
            println!("CS5 <= CS2 (regulator loading):  {}", shape.cs5_below_cs2);
            println!(
                "of {{Df16, Df19, Df29}} among the 3 most critical amplifier defects: {}",
                shape.critical_defects_in_top3
            );
        }
        "table3" => {
            let mut opts = CoverageOptions::paper();
            opts.jobs = jobs;
            if !paper {
                opts.defects = Defect::table2_rows()
                    .into_iter()
                    .filter(|d| !d.is_transient_mechanism())
                    .collect();
            }
            let report = table3::run(&opts)?;
            println!("{report}");
            println!("paper's flow for reference:\n{}", report.paper);
        }
        "march" => march_study(),
        "fuzz-functional" | "fuzz-netlist" => {
            let cases = fuzz_cases.unwrap_or_else(|| default_fuzz_cases(artifact));
            let summary = if artifact == "fuzz-netlist" {
                drftest::fuzz_netlists(cases, fuzz_seed)
            } else {
                drftest::fuzz_functional(cases, fuzz_seed)
            };
            println!("{summary}");
            if let Some(failure) = summary.first_failure() {
                return Err(format!(
                    "fuzzing found a counterexample; replay it with \
                     `lp-sram-suite {artifact} --fuzz-seed {} --cases 1`\n{failure}",
                    failure.case_seed
                )
                .into());
            }
        }
        "power-defects" => {
            let category1: Vec<Defect> = Defect::all()
                .filter(|d| d.expected_category() == DefectCategory::IncreasedPower)
                .collect();
            println!("{}", power_defect_table(&category1)?);
            println!(
                "note: these defects escape the retention flow by design (they never\n\
                 lower Vreg); catching them needs an IDDQ-style static power screen,\n\
                 which is exactly why the paper defers them to future work."
            );
        }
        "ds-time" => {
            let report = ds_time_sweep()?;
            println!("{report}");
            match report.minimum_detecting_dwell() {
                Some(d) => println!(
                    "minimum detecting dwell: {d:.1e} s — Table III's 1 ms dwell holds {}x margin",
                    (1.0e-3 / d).round()
                ),
                None => println!("this defect escapes every swept dwell"),
            }
        }
        "monte-carlo" => {
            let opts = MonteCarloOptions {
                jobs,
                ..MonteCarloOptions::default()
            };
            let report = monte_carlo_drv(&opts)?;
            println!("{report}");
            for n in [1u8, 2, 4] {
                let cs = CaseStudy::new(n, sram::StoredBit::One);
                println!(
                    "{cs}: pattern is {:.1}σ from nominal (RSS) — exceeded by {:.1}% of samples",
                    pattern_norm_sigma(&cs.pattern()),
                    report.exceedance(cs.paper_drv_mv() / 1e3) * 100.0
                );
            }
            println!(
                "\nthe worst-case flow design point (730 mV) is a deep-tail construction:\n\
                 testing against it covers every manufacturable die."
            );
        }
        "all" => {
            for artifact in [
                "table1",
                "fig4",
                "table2",
                "table3",
                "array",
                "fig5",
                "march",
                "power-defects",
                "ds-time",
                "monte-carlo",
            ] {
                println!("==== {artifact} ====");
                run(artifact, false, jobs, None, fuzz)?;
                println!();
            }
        }
        _ => return Err(format!("unknown artifact `{artifact}`").into()),
    }
    Ok(())
}

/// March algorithm study: the paper's March m-LZ against the classic
/// baselines, graded on a fault list that includes deep-sleep
/// retention faults.
fn march_study() {
    let (words, bits) = (256, 16);
    let (retention, classic): (Vec<_>, Vec<_>) = standard_fault_list(words, bits)
        .into_iter()
        .partition(|f| f.kind.needs_deep_sleep());
    println!(
        "fault list: {} classic (SAF/TF/CF) + {} deep-sleep retention faults\n",
        classic.len(),
        retention.len()
    );
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>12}",
        "algorithm", "length", "classic", "retention", "DRF_DS-able"
    );
    for test in library::all(1.0e-3) {
        let (a, b) = test.length_formula();
        println!(
            "{:<12} {:>5}N+{:<2} {:>9.0}% {:>9.0}% {:>12}",
            test.name(),
            a,
            b,
            grade(&test, words, bits, &classic).percent(),
            grade(&test, words, bits, &retention).percent(),
            if DrfDs::detected_by(&test) {
                "yes"
            } else {
                "no"
            }
        );
    }
    let mlz = library::march_mlz(1.0e-3);
    println!();
    println!("March m-LZ notation: {mlz}");
    println!(
        "complexity on the paper's 4Kx64 block: {} operations",
        mlz.complexity(4096)
    );
}

/// One subcommand's arguments, checked against the flags it takes.
struct Args<'a> {
    /// `(flag, value)` in command-line order; a switch has no value.
    flags: Vec<(&'a str, Option<&'a str>)>,
    /// Arguments that are not flags, in order.
    positionals: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Parses `command`'s arguments: each of `switches` stands alone,
    /// each of `options` takes the argument after it as its value, and
    /// up to `max_positionals` other arguments may appear. Anything
    /// else is a usage error, printed with the argument's name.
    fn parse(
        command: &str,
        args: &'a [String],
        switches: &[&str],
        options: &[&str],
        max_positionals: usize,
    ) -> Option<Self> {
        let mut parsed = Args {
            flags: Vec::new(),
            positionals: Vec::new(),
        };
        let mut rest = args.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            if switches.contains(&arg) {
                parsed.flags.push((arg, None));
            } else if options.contains(&arg) {
                let Some(value) = rest.next() else {
                    eprintln!("error: `{arg}` needs a value");
                    return None;
                };
                parsed.flags.push((arg, Some(value)));
            } else if !arg.starts_with('-') && parsed.positionals.len() < max_positionals {
                parsed.positionals.push(arg);
            } else {
                eprintln!("error: `{command}` does not take the argument `{arg}`");
                return None;
            }
        }
        Some(parsed)
    }

    /// Whether `switch` was given.
    fn has(&self, switch: &str) -> bool {
        self.flags.iter().any(|&(flag, _)| flag == switch)
    }

    /// Every value given to `option`, in order.
    fn values(&self, option: &'a str) -> impl Iterator<Item = &'a str> + '_ {
        self.flags
            .iter()
            .filter(move |&&(flag, _)| flag == option)
            .filter_map(|&(_, value)| value)
    }

    /// The first value given to `option`.
    fn value(&self, option: &'a str) -> Option<&'a str> {
        self.values(option).next()
    }
}

/// Prints a usage error and returns its exit code.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::from(USAGE_ERROR)
}

/// The switches and value-taking options `artifact` accepts, or `None`
/// for an unknown artifact. Every artifact takes the observability
/// flags.
fn artifact_flags(artifact: &str) -> Option<(Vec<&'static str>, Vec<&'static str>)> {
    let mut switches = vec!["--progress"];
    let mut options = vec!["--trace", "--metrics"];
    match artifact {
        "table1" | "fig4" | "table3" | "array" => {
            switches.push("--paper");
            options.push("--jobs");
        }
        "table2" => {
            switches.push("--paper");
            options.extend(["--jobs", "--checkpoint"]);
        }
        "monte-carlo" | "all" => options.push("--jobs"),
        "fuzz-functional" | "fuzz-netlist" => options.extend(["--cases", "--fuzz-seed"]),
        "fig5" | "march" | "power-defects" | "ds-time" => {}
        _ => return None,
    }
    Some((switches, options))
}

/// Runs the static ERC lint sweep; returns the process exit code.
fn lint(args: &[String]) -> ExitCode {
    let switches = ["--deny-warnings", "--json", "--rules"];
    let Some(args) = Args::parse("lint", args, &switches, &[], 0) else {
        return ExitCode::from(USAGE_ERROR);
    };
    if args.has("--rules") {
        for (code, name, summary) in drftest::rule_catalogue() {
            println!("{code}  {name:<28} {summary}");
        }
        return ExitCode::SUCCESS;
    }
    match drftest::lint_all(process::PvtCondition::nominal()) {
        Ok(run) => {
            if args.has("--json") {
                println!("{}", run.to_json().to_compact());
            } else {
                print!("{}", run.render_text());
            }
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            ExitCode::from(run.exit_code(args.has("--deny-warnings")) as u8)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Renders a `--metrics` manifest back as a human-readable digest
/// (or, with `json`, as a machine-readable summary document).
fn summarize(
    path: &str,
    top_k: usize,
    json: bool,
    traces: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read manifest `{path}`: {e}"))?;
    let manifest = obs::RunManifest::parse(&text)
        .map_err(|e| format!("`{path}` is not a run manifest: {e}"))?;
    if json {
        println!("{}", manifest.summary_json(top_k).to_pretty());
        return Ok(());
    }
    print!("{}", manifest.render_summary(top_k));
    if traces {
        print!("{}", manifest.render_traces(8));
    }
    Ok(())
}

/// Folds a `--trace` JSONL stream into a calling-context profile.
fn profile(
    path: &str,
    top_k: usize,
    collapsed: Option<&str>,
    json: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace `{path}`: {e}"))?;
    let prof = obs::Profile::from_jsonl(&text);
    if let Some(out) = collapsed {
        std::fs::write(out, prof.to_collapsed())
            .map_err(|e| format!("cannot write collapsed stacks `{out}`: {e}"))?;
    }
    if json {
        println!("{}", prof.to_json().to_pretty());
    } else {
        print!("{}", prof.render(top_k));
    }
    Ok(())
}

/// Diffs two `--metrics` run manifests.
/// Exit codes: 0 = within thresholds, 1 = regression, 2 = usage or
/// parse error — the contract CI gates build on.
fn compare(args: &[String]) -> ExitCode {
    let Some(args) = Args::parse("compare", args, &["--json", "--all"], &["--fail-over"], 2) else {
        return ExitCode::from(USAGE_ERROR);
    };
    let mut thresholds: Vec<obs::Threshold> = Vec::new();
    for spec in args.values("--fail-over") {
        match obs::Threshold::parse(spec) {
            Ok(t) => thresholds.push(t),
            Err(e) => return usage_error(&format!("bad --fail-over `{spec}`: {e}")),
        }
    }
    let paths = &args.positionals;
    if paths.len() != 2 {
        return usage_error(&format!(
            "compare needs exactly two files (old, new), got {}",
            paths.len()
        ));
    }
    let load = |p: &str| -> Result<obs::MetricSet, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read `{p}`: {e}"))?;
        obs::MetricSet::from_json_str(&text).map_err(|e| format!("`{p}`: {e}"))
    };
    let (old, new) = match (load(paths[0]), load(paths[1])) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => return usage_error(&e),
    };
    let report = match obs::Report::build(&old, &new, &thresholds) {
        Ok(report) => report,
        Err(e) => return usage_error(&format!("--fail-over gate: {e}")),
    };
    if args.has("--json") {
        println!("{}", report.to_json().to_pretty());
    } else {
        print!("{}", report.render_text(args.has("--all")));
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    ExitCode::from(report.exit_code() as u8)
}

/// Runs the symbolic coverage prover over the march library and
/// cross-checks the resulting claims matrix against the paper's claim
/// table, the concrete simulator (counterexample replay + witness
/// validation), and the functional fuzzer's claim list. Exit codes:
/// 0 = everything proven and all oracles agree, 1 = any
/// claimed-but-unproven result, disagreement, or (with
/// `--deny-unknown`) Unknown verdict, 2 = usage error.
fn prove(args: &[String]) -> ExitCode {
    let switches = ["--json", "--deny-unknown", "--differential"];
    let Some(args) = Args::parse("prove", args, &switches, &["--metrics"], 0) else {
        return ExitCode::from(USAGE_ERROR);
    };
    let deny_unknown = args.has("--deny-unknown");
    let differential = args.has("--differential");
    let started = Instant::now();
    let dwell = 1.0e-3;
    let matrix = mprove::prove_library(dwell);
    let tests = library::all(dwell);
    let mut problems = mprove::check_paper_claims(&matrix);
    problems.extend(mprove::differential::check_replays(&matrix, &tests));
    problems.extend(drftest::fuzz::cross_check(&matrix));
    if differential {
        for (words, bits) in [(1, 8), (2, 8), (16, 8)] {
            for test in &tests {
                problems.extend(mprove::differential::exhaustive(test, &matrix, words, bits));
            }
        }
    }
    if args.has("--json") {
        println!("{}", matrix.to_json().to_pretty());
    } else {
        print!("{matrix}");
    }
    for problem in &problems {
        eprintln!("FAIL: {problem}");
    }
    let counts = matrix.counts();
    let denied = deny_unknown && counts.unknown > 0;
    if denied {
        eprintln!(
            "FAIL: {} Unknown verdict(s) with --deny-unknown",
            counts.unknown
        );
    }
    if let Some(path) = args.value("--metrics") {
        obs::flush();
        let mut config = BTreeMap::new();
        config.insert("artifact".to_string(), "prove".to_string());
        config.insert("prove.differential".to_string(), differential.to_string());
        config.insert("prove.deny_unknown".to_string(), deny_unknown.to_string());
        let manifest = obs::RunManifest::from_snapshot(
            "prove",
            config,
            &obs::snapshot(),
            started.elapsed().as_secs_f64(),
        );
        if let Err(e) = std::fs::write(path, manifest.to_json_string()) {
            eprintln!("error: cannot write metrics file `{path}`: {e}");
        }
    }
    obs::close_sink();
    if problems.is_empty() && !denied {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Echo of the effective configuration into the manifest.
fn config_echo(
    artifact: &str,
    paper: bool,
    jobs: usize,
    checkpoint: Option<&str>,
    fuzz: (u64, Option<u64>),
) -> BTreeMap<String, String> {
    let mut config = BTreeMap::new();
    config.insert("artifact".to_string(), artifact.to_string());
    if artifact.starts_with("fuzz-") {
        let (seed, cases) = fuzz;
        config.insert("fuzz.seed".to_string(), seed.to_string());
        config.insert(
            "fuzz.cases".to_string(),
            cases
                .unwrap_or_else(|| default_fuzz_cases(artifact))
                .to_string(),
        );
    }
    let mode = if paper { "paper" } else { "quick" };
    config.insert("mode".to_string(), mode.to_string());
    config.insert(
        "jobs".to_string(),
        drftest::effective_jobs(jobs).to_string(),
    );
    if let Some(path) = checkpoint {
        config.insert("checkpoint".to_string(), path.to_string());
    }
    config
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(artifact) = args.first().map(String::as_str) else {
        print_usage();
        return ExitCode::from(USAGE_ERROR);
    };
    let rest = &args[1..];
    match artifact {
        "lint" => return lint(rest),
        "compare" => return compare(rest),
        "prove" => return prove(rest),
        _ => {}
    }
    if artifact == "summary" || artifact == "profile" {
        let (switches, options, input) = if artifact == "summary" {
            (&["--json", "--traces"][..], &["--top"][..], "manifest")
        } else {
            (
                &["--json"][..],
                &["--top", "--collapsed"][..],
                "trace (JSONL)",
            )
        };
        let Some(args) = Args::parse(artifact, rest, switches, options, 1) else {
            return ExitCode::from(USAGE_ERROR);
        };
        let Some(&path) = args.positionals.first() else {
            return usage_error(&format!("{artifact} needs a {input} path"));
        };
        let top_k = match args.value("--top") {
            Some(v) => match v.parse::<usize>() {
                Ok(k) => k,
                Err(_) => {
                    return usage_error(&format!("--top expects a non-negative integer, got `{v}`"))
                }
            },
            None => 10,
        };
        let json = args.has("--json");
        let outcome = if artifact == "summary" {
            summarize(path, top_k, json, args.has("--traces"))
        } else {
            profile(path, top_k, args.value("--collapsed"), json)
        };
        return match outcome {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some((switches, options)) = artifact_flags(artifact) else {
        print_usage();
        return usage_error(&format!("unknown artifact `{artifact}`"));
    };
    let Some(args) = Args::parse(artifact, rest, &switches, &options, 0) else {
        return ExitCode::from(USAGE_ERROR);
    };
    let paper = args.has("--paper");
    let jobs = match args.value("--jobs") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return usage_error(&format!("--jobs expects a non-negative integer, got `{v}`"))
            }
        },
        None => 0,
    };
    let checkpoint = args.value("--checkpoint");
    let fuzz_seed = match args.value("--fuzz-seed") {
        Some(v) => match v.parse::<u64>() {
            Ok(s) => s,
            Err(_) => return usage_error(&format!("--fuzz-seed expects a u64, got `{v}`")),
        },
        None => drftest::fuzz::DEFAULT_SEED,
    };
    let fuzz_cases = match args.value("--cases") {
        Some(v) => match v.parse::<u64>() {
            Ok(n) if n > 0 => Some(n),
            _ => return usage_error(&format!("--cases expects a positive integer, got `{v}`")),
        },
        None => None,
    };
    let fuzz = (fuzz_seed, fuzz_cases);
    let trace = args.value("--trace");
    let metrics = args.value("--metrics");
    if args.has("--progress") {
        obs::set_progress(true);
    }
    if let Some(path) = trace {
        if let Err(e) = obs::install_jsonl(path) {
            eprintln!("error: cannot open trace file `{path}`: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Observability runs arm the convergence flight recorder: per-point
    // residual trajectories for the slowest and all failed points land
    // in the manifest (`summary --traces` renders them).
    if trace.is_some() || metrics.is_some() {
        obs::flight_enable(obs::DEFAULT_CAPACITY);
    }
    let started = Instant::now();
    let outcome = run(artifact, paper, jobs, checkpoint, fuzz);
    if let Some(path) = metrics {
        obs::flush();
        let manifest = obs::RunManifest::from_snapshot(
            artifact,
            config_echo(artifact, paper, jobs, checkpoint, fuzz),
            &obs::snapshot(),
            started.elapsed().as_secs_f64(),
        );
        if let Err(e) = std::fs::write(path, manifest.to_json_string()) {
            eprintln!("error: cannot write metrics file `{path}`: {e}");
        }
    }
    obs::close_sink();
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
