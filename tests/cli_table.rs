//! `cae-dfkd table` as a process sees it: how the budget is resolved, how
//! unknown ids are reported, and that `table all` resumes from completed
//! artifacts. None of these cases trains anything.

use cae_dfkd::core::experiments;
use cae_dfkd::core::report::Report;
use std::process::{Command, Output};

fn cae_dfkd(args: &[&str], budget_env: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cae-dfkd"));
    cmd.args(args)
        .env_remove("CAE_RESUME")
        .env_remove("CAE_RESULTS_DIR");
    match budget_env {
        Some(budget) => cmd.env("CAE_BUDGET", budget),
        None => cmd.env_remove("CAE_BUDGET"),
    };
    cmd.output().expect("cae-dfkd binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn an_unknown_budget_in_the_environment_is_rejected() {
    let out = cae_dfkd(&["table", "nope"], Some("bogus"));
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown budget 'bogus'"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn the_budget_flag_beats_the_environment_and_continual_is_registered() {
    let out = cae_dfkd(&["table", "nope", "--budget", "smoke"], Some("bogus"));
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown experiment 'nope'"), "{err}");
    assert!(err.contains("continual"), "{err}");
}

#[test]
fn table_all_skips_every_completed_paper_artifact() {
    let dir = std::env::temp_dir().join(format!("cae_table_all_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut report = Report::new("Stand-in", "a parseable report", &["a"]);
    report.push_row("x", [1.0]);
    let paper: Vec<_> = experiments::registry()
        .iter()
        .filter(|e| e.in_paper)
        .collect();
    assert_eq!(paper.len(), 13);
    for entry in &paper {
        std::fs::write(
            dir.join(format!("{}.json", entry.artifact_stem)),
            report.to_json(),
        )
        .expect("write stand-in artifact");
    }

    let out = cae_dfkd(
        &[
            "table",
            "all",
            "--budget",
            "smoke",
            "--out",
            dir.to_str().expect("utf-8 temp dir"),
        ],
        None,
    );
    let err = stderr(&out);
    std::fs::remove_dir_all(&dir).ok();
    assert!(out.status.success(), "{err}");
    for entry in &paper {
        assert!(
            err.contains(&format!(">>> {}: already completed", entry.id)),
            "{err}"
        );
    }
    assert!(!err.contains(">>> running"), "{err}");
}
