//! The CLI is the one regenerator of the committed results: each
//! artifact's stdout must equal its `results/` file byte for byte.
//! These three run in well under a second even in a debug build; CI
//! diffs the rest, `--paper` grids included.

fn assert_reproduces(artifact: &str, committed: &str) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_lp-sram-suite"))
        .arg(artifact)
        .output()
        .expect("CLI runs");
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
