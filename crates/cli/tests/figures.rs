//! `ramr figures` runs the paper's figures in process, fails loudly on a
//! name it does not know, and `ramr simulate` prints the very Fig 8/9 cell
//! it prices.

use std::process::{Command, Output};

const FIGURES: [&str; 11] = [
    "table1_inputs",
    "fig1_breakdown",
    "fig3_pinning_map",
    "fig4_synthetic",
    "fig5_pinning",
    "fig6_batched",
    "fig7_batch_size",
    "fig8_haswell",
    "fig9_phi",
    "fig10_suitability",
    "ablations",
];

fn ramr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ramr")).args(args).output().expect("spawn ramr")
}

fn stdout(out: &Output) -> String {
    assert!(out.status.success(), "ramr failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

#[test]
fn an_unknown_figure_exits_2_and_names_every_figure() {
    // Names are checked before any figure runs, wherever the unknown one sits.
    for args in [&["figures", "no_such_figure"][..], &["figures", "fig3_pinning_map", "fig2"]] {
        let out = ramr(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may print before the error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for name in FIGURES {
            assert!(stderr.contains(name), "{name} missing from: {stderr}");
        }
    }
}

#[test]
fn a_named_figure_prints_without_a_banner() {
    let out = stdout(&ramr(&["figures", "fig3_pinning_map"]));
    assert!(out.starts_with("FIG 3:"), "{out}");
}

/// The `large` column of each app's row in the first (default-container)
/// panel of a Fig 8/9 print, keyed by the app's abbreviation.
fn large_column(figure: &str) -> Vec<(String, String)> {
    let printed = stdout(&ramr(&["figures", figure]));
    let panel = printed.split("\n\n").nth(1).expect("the default-container panel");
    panel
        .lines()
        .skip(2) // header and separator
        .filter(|row| !row.trim_start().starts_with("suite"))
        .map(|row| {
            let cells: Vec<&str> = row.split_whitespace().collect();
            (cells[0].to_string(), cells[3].to_string())
        })
        .collect()
}

#[test]
fn simulate_prints_the_fig8_and_fig9_cell_it_prices() {
    for (figure, machine) in [("fig8_haswell", "hwl"), ("fig9_phi", "phi")] {
        let cells = large_column(figure);
        assert_eq!(cells.len(), 6, "{figure}: {cells:?}");
        for (abbrev, cell) in cells {
            let app = abbrev.to_lowercase();
            let args = ["simulate", "--app", &app, "--flavor", "large", "--machine", machine];
            let line = stdout(&ramr(&args));
            assert!(
                line.trim_end().ends_with(&format!("speedup {cell}x")),
                "{figure} {abbrev} large reads {cell}: {line}"
            );
            if (figure, abbrev.as_str()) == ("fig8_haswell", "MM") {
                assert_eq!(cell, "1.26", "Fig 8a MM/large");
            }
        }
    }
}
