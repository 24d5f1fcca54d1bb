//! `rextract query --strategy`: the join that runs is the join the
//! summary line names, including when the flag is repeated. A query
//! whose inline expression does not parse fails when it is loaded.

use std::process::Command;

#[test]
fn last_strategy_flag_wins_and_is_reported() {
    let dir = std::env::temp_dir().join(format!("rextract-cli-strategy-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let query = dir.join("forms.json");
    std::fs::write(
        &query,
        r#"{"sources": [{"var": "form", "alphabet": "FORM /FORM", "expr": "[^FORM]* <FORM> .*"}],
            "plan": {"op": "leaf", "var": "form"}}"#,
    )
    .unwrap();
    let page = dir.join("p.html");
    std::fs::write(&page, "<p><form><input></form>").unwrap();
    for (flags, want) in [
        (&["nested-loop", "sort-merge"], "(sort-merge join)"),
        (&["sort-merge", "nested-loop"], "(nested-loop join)"),
    ] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_rextract"));
        cmd.arg("query").arg(&query).arg(&page);
        for f in flags {
            cmd.args(["--strategy", f]);
        }
        let out = cmd.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        assert!(stderr.contains(want), "{flags:?}: {stderr}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("\"vars\":[\"form\"]"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_inline_expression_fails_at_load_with_no_output() {
    let dir = std::env::temp_dir().join(format!("rextract-cli-badexpr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let query = dir.join("cells.json");
    std::fs::write(
        &query,
        r#"{"sources": [{"var": "cell", "alphabet": "TD", "expr": "((( <TD> .*"}],
            "plan": {"op": "leaf", "var": "cell"}}"#,
    )
    .unwrap();
    let page = dir.join("p.html");
    std::fs::write(&page, "<table><tr><td>1</td></tr></table>").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_rextract"))
        .arg("query")
        .arg(&query)
        .arg(&page)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        stderr.contains("source \"cell\": bad expression"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
