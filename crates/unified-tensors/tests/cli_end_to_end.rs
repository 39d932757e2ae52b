//! End-to-end tests of the `tensortool` binary itself (argument parsing,
//! exit codes, output) via `CARGO_BIN_EXE`.

use std::process::Command;

fn tensortool(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tensortool"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tensortool_e2e_{name}_{}", std::process::id()))
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = tensortool(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("mttkrp"));
}

#[test]
fn unknown_command_fails_with_usage_on_stderr() {
    let out = tensortool(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.contains("USAGE"));
}

#[test]
fn generate_info_mttkrp_pipeline() {
    let tns = temp_path("pipe.tns");
    let out = tensortool(&["generate", "nell2", "1500", tns.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = tensortool(&["info", tns.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("order:    3"));
    assert!(text.contains("gini"));

    let out = tensortool(&["mttkrp", tns.to_str().unwrap(), "1", "8"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SpMTTKRP(mode-1)"));
    assert!(text.contains("µs simulated"));

    std::fs::remove_file(&tns).ok();
}

#[test]
fn preprocess_then_cached_run_pipeline() {
    let tns = temp_path("cache.tns");
    let fcoo = temp_path("cache.fcoo");
    assert!(
        tensortool(&["generate", "brainq", "2000", tns.to_str().unwrap()])
            .status
            .success()
    );
    let out = tensortool(&[
        "preprocess",
        tns.to_str().unwrap(),
        "spttm",
        "3",
        fcoo.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = tensortool(&["run", fcoo.to_str().unwrap(), "16"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SpTTM(mode-3)"));
    std::fs::remove_file(&tns).ok();
    std::fs::remove_file(&fcoo).ok();
}

#[test]
fn missing_file_reports_clean_error() {
    let out = tensortool(&["info", "/definitely/not/here.tns"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot open"));
}

#[test]
fn mode_zero_is_rejected_as_one_based() {
    let tns = temp_path("mode0.tns");
    assert!(
        tensortool(&["generate", "nell2", "500", tns.to_str().unwrap()])
            .status
            .success()
    );
    let out = tensortool(&["spttm", tns.to_str().unwrap(), "0", "4"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("1-based"));
    std::fs::remove_file(&tns).ok();
}

#[test]
fn malformed_workloads_fail_with_a_message_not_a_panic() {
    let cases = [
        ("tiny", "tensor t nell2 10 1\n", "minimum of 16"),
        (
            "spttm_rank0",
            "tensor t nell2 900 1\nrequest t spttm 0 0 0.0 1\n",
            "rank must be at least 1",
        ),
        (
            "cp_rank0",
            "tensor t nell2 900 1\nrequest t cp 2 0 0.0 1\n",
            "rank must be at least 1",
        ),
    ];
    for (name, text, message) in cases {
        let path = temp_path(&format!("{name}.txt"));
        std::fs::write(&path, text).unwrap();
        let out = tensortool(&["serve", path.to_str().unwrap()]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {err}");
        assert!(err.contains(message), "{name}: {err}");
        assert!(!err.contains("panicked"), "{name}: {err}");
        std::fs::remove_file(&path).ok();
    }
    let out = tensortool(&["generate", "nell2", "10", "/dev/null"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("nnz must be at least 16"));
}
