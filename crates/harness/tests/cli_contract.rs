//! The command-line contract of the built harness binaries: `--help` names
//! every flag a binary reads, `--workload all` is refused outside
//! `ablation`, an invalid `ELMRL_*` fallback exits 2 before any work, and a
//! flag a binary ignores gets a note. Variables are set on each `Command`,
//! never on the test process.

use elmrl_harness::cli::FLAGS;
use std::path::PathBuf;
use std::process::{Command, Output};

const BINARIES: &[(&str, &str)] = &[
    ("table3", env!("CARGO_BIN_EXE_table3")),
    ("fig4", env!("CARGO_BIN_EXE_fig4")),
    ("fig5", env!("CARGO_BIN_EXE_fig5")),
    ("fig6", env!("CARGO_BIN_EXE_fig6")),
    ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ("population", env!("CARGO_BIN_EXE_population")),
    ("serve", env!("CARGO_BIN_EXE_serve")),
    ("summary", env!("CARGO_BIN_EXE_summary")),
];

/// Run `binary` with `args` and exactly the `ELMRL_*` variables in `vars`.
fn run(binary: &str, args: &[&str], vars: &[(&str, &str)]) -> Output {
    let (_, exe) = BINARIES.iter().find(|(name, _)| *name == binary).unwrap();
    let mut command = Command::new(exe);
    command.args(args);
    for (key, _) in std::env::vars() {
        if key.starts_with("ELMRL_") {
            command.env_remove(key);
        }
    }
    command.envs(vars.iter().copied());
    command.output().expect("start the binary")
}

/// A fresh, not yet created output directory.
fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("elmrl-cli-contract-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn help_exits_0_and_names_every_flag_the_binary_reads() {
    for (binary, _) in BINARIES {
        let output = run(binary, &["--help"], &[]);
        assert!(output.status.success(), "{binary}: {}", stderr(&output));
        let help = String::from_utf8(output.stdout).unwrap();
        let (read, _) = help.split_once("Accepted but ignored").unwrap();
        for flag in FLAGS.iter().filter(|f| f.read_by(binary)) {
            assert!(
                read.contains(flag.name),
                "{binary} --help lacks {}",
                flag.name
            );
            if let Some(var) = flag.env {
                assert!(read.contains(var), "{binary} --help lacks {var}");
            }
        }
    }
}

#[test]
fn workload_all_is_refused_outside_ablation() {
    let out = scratch_dir("workload-all");
    let output = run(
        "fig5",
        &["--workload", "all", "--out", out.to_str().unwrap()],
        &[],
    );
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
    assert!(stderr(&output).contains("ablation"));
    assert!(!out.exists());
}

#[test]
fn an_invalid_environment_fallback_exits_2_and_writes_nothing() {
    let out = scratch_dir("bad-hidden");
    let output = run(
        "fig5",
        &[
            "--trials",
            "1",
            "--episodes",
            "1",
            "--out",
            out.to_str().unwrap(),
        ],
        &[("ELMRL_HIDDEN", "abc")],
    );
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
    assert!(stderr(&output).contains("ELMRL_HIDDEN"));
    assert!(!out.exists());

    // `ablation` used to index an empty hidden list and panic.
    let output = run(
        "ablation",
        &["--out", out.to_str().unwrap()],
        &[("ELMRL_HIDDEN", "abc")],
    );
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
    assert!(stderr(&output).contains("ELMRL_HIDDEN"));
    assert!(!out.exists());
}

#[test]
fn an_ignored_flag_gets_one_note_and_the_run_goes_on() {
    let out = scratch_dir("table3-note");
    let output = run(
        "table3",
        &[
            "--trials",
            "2",
            "--trials",
            "3",
            "--out",
            out.to_str().unwrap(),
        ],
        &[],
    );
    assert!(output.status.success(), "{}", stderr(&output));
    assert_eq!(
        stderr(&output).matches("--trials is ignored here").count(),
        1,
        "{}",
        stderr(&output)
    );
    assert!(out.join("table3.json").exists());
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn resuming_a_checkpoint_whose_buffer_d_was_cut_short_exits_2() {
    let (ckpt, out) = (scratch_dir("cut-d-ckpt"), scratch_dir("cut-d-out"));
    let (ckpt_arg, out_arg) = (ckpt.to_str().unwrap(), out.to_str().unwrap());
    let run_fig5 = |extra: &[&str]| {
        let mut args = vec![
            "--workload",
            "cart-pole",
            "--hidden",
            "8",
            "--trials",
            "1",
            "--episodes",
            "5",
            "--checkpoint-dir",
            ckpt_arg,
            "--out",
            out_arg,
        ];
        args.extend_from_slice(extra);
        run("fig5", &args, &[])
    };
    let stopped = run_fig5(&["--checkpoint-every", "1", "--stop-after", "1"]);
    assert!(stopped.status.success(), "{}", stderr(&stopped));

    // The batch ELM trial refills buffer D between retrains, so its
    // checkpoint holds buffered transitions; cut the first state to 3 of
    // CartPole's 4 components.
    let path = std::fs::read_dir(&ckpt)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            p.file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .starts_with("trial-cart-pole-elm-")
        })
        .expect("the ELM trial's checkpoint");
    let json = std::fs::read_to_string(&path).unwrap();
    let start = json
        .find("\"buffer\":[{\"state\":[")
        .expect("a buffered transition");
    let end = start + json[start..].find(']').unwrap();
    let cut = json[..end].rfind(',').unwrap();
    std::fs::write(&path, format!("{}{}", &json[..cut], &json[end..])).unwrap();

    let resumed = run_fig5(&["--resume"]);
    assert_eq!(resumed.status.code(), Some(2), "{}", stderr(&resumed));
    assert!(stderr(&resumed).contains("does not fit state_dim 4"));
    assert!(!out.join("fig5.json").exists());
    let _ = std::fs::remove_dir_all(&ckpt);
    let _ = std::fs::remove_dir_all(&out);
}
