//! The CLI is the one regenerator of the committed results: each
//! artifact's stdout must equal its `results/` file byte for byte.
//! These five take a few seconds at most even in a debug build; CI
//! diffs the rest, `--paper` grids included.

fn cli(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_lp-sram-suite"))
        .args(args)
        .output()
        .expect("CLI runs")
}

fn assert_reproduces(artifact: &str, committed: &str) {
    let out = cli(&[artifact]);
    assert!(out.status.success(), "{artifact}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        stdout == committed,
        "`lp-sram-suite {artifact}` no longer reproduces its results file:\n\
         --- committed\n{committed}\n--- printed\n{stdout}"
    );
}

#[test]
fn march_reproduces_its_results_file() {
    assert_reproduces("march", include_str!("../results/march_demo.txt"));
}

#[test]
fn ds_time_reproduces_its_results_file() {
    assert_reproduces("ds-time", include_str!("../results/ds_time.txt"));
}

#[test]
fn power_defects_reproduces_its_results_file() {
    assert_reproduces(
        "power-defects",
        include_str!("../results/power_defects.txt"),
    );
}

#[test]
fn fig5_reproduces_its_results_file() {
    assert_reproduces("fig5", include_str!("../results/fig5_taxonomy.txt"));
}

/// The `interface` and `macromodels hit/built` columns pin the Schur
/// partition and the macromodel cache, which the block templates
/// decide.
#[test]
fn array_reproduces_its_results_file() {
    assert_reproduces("array", include_str!("../results/array.txt"));
}

/// A misspelt flag, artifact or value must not quietly print the
/// default artifact: it is a usage error (exit 2, where a failed run
/// exits 1) that names the offending argument.
#[test]
fn subcommands_reject_arguments_they_do_not_take() {
    let cases: [(&[&str], Option<&str>); 6] = [
        (&["ds-time", "--papr"], Some("--papr")),
        (&["lint", "--rulez"], Some("--rulez")),
        (&["tabel2"], Some("tabel2")),
        (&["table2", "--jobs", "abc"], Some("abc")),
        (&["summary"], None),
        (&["summary", "m.json", "--top", "abc"], Some("abc")),
    ];
    for (args, named) in cases {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed an artifact");
        if let Some(arg) = named {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(&format!("`{arg}`")), "{stderr}");
        }
    }
}
