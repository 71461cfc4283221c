//! Golden trace-diff test: two committed miniature trace fixtures — the
//! slow one has a known injected slowdown in `trainer.student_step` (each
//! of the two steps inflated by 1600ns; every other span's *self* time is
//! unchanged because parent durations grow by exactly the injected
//! amount). The diff must name that span, with the exact delta, and the
//! rendering must carry the attribution line verbatim so `cae-dfkd
//! trace-diff` output can be grepped for it.

use cae_trace::profile::{diff, Profile};

const BASE: &str = include_str!("fixtures/trace_base.jsonl");
const SLOW: &str = include_str!("fixtures/trace_slow.jsonl");

#[test]
fn injected_slowdown_is_named_as_the_top_delta_span() {
    let base = Profile::from_jsonl(BASE).expect("base fixture parses");
    let slow = Profile::from_jsonl(SLOW).expect("slow fixture parses");
    assert!(base.experiment_root().is_some(), "fixtures carry a full tree");

    let d = diff(&base, &slow);
    let top = d.top_regression().expect("the slowdown must surface");
    assert_eq!(top.name, "trainer.student_step");
    assert_eq!(top.delta_self_ns, 2 * 1600, "two steps, 1600ns injected each");
    assert_eq!(top.base.count, 2);
    assert_eq!(top.cur.count, 2);

    // Self time elsewhere is untouched: the injected time propagated into
    // parent *totals* only.
    for name in ["experiment", "scheduler.cell", "trainer.generator_step"] {
        let row = d.rows.iter().find(|r| r.name == name).expect("span present");
        assert_eq!(row.delta_self_ns, 0, "{name} self time must not move");
    }
    let cell = d.rows.iter().find(|r| r.name == "scheduler.cell").expect("cells present");
    assert_eq!(cell.delta_total_ns, 2 * 1600, "cell totals absorb the child slowdown");

    // Whole-trace wall-clock moves by exactly the injected amount.
    assert_eq!(d.cur_self_ns - d.base_self_ns, 2 * 1600);

    let rendered = d.render(10);
    assert!(
        rendered.contains("top-delta span: trainer.student_step"),
        "attribution line must name the guilty span:\n{rendered}"
    );
    // Contribution order puts the injected span first.
    let first_row = rendered.lines().nth(1).expect("at least one row");
    assert!(first_row.trim_start().starts_with("trainer.student_step"), "{rendered}");
}

#[test]
fn reversed_diff_reports_a_speedup_not_a_regression() {
    let base = Profile::from_jsonl(BASE).expect("base fixture parses");
    let slow = Profile::from_jsonl(SLOW).expect("slow fixture parses");
    let d = diff(&slow, &base);
    assert!(
        d.top_regression().is_none(),
        "going from slow to base, nothing got slower"
    );
    assert!(d.render(10).contains("top-delta span: none"));
}
