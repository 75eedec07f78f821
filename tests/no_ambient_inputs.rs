//! Nothing below the two process boundaries reads the environment: the
//! sources under `crates/*/src` and `src/` may name `env::var`/`env::vars`,
//! or spell an `MLCASK_*` name outside a comment, in one file only —
//! `crates/obs/src/config.rs`, where `Config::from_env` lives.

use std::path::{Path, PathBuf};

const CONFIG_FILE: &str = "crates/obs/src/config.rs";

/// What every one of the six names starts with (and nothing else in the
/// sources does: metric names are lower case).
const NAME_PREFIX: &str = "MLCASK_";

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The part of `line` that is code: everything before a `//` that is not
/// inside a string literal.
fn code_of(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_string = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_string => i += 1,
            b'"' => in_string = !in_string,
            b'/' if !in_string && bytes.get(i + 1) == Some(&b'/') => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

#[test]
fn the_environment_is_read_in_one_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        rust_files(&krate.unwrap().path().join("src"), &mut files);
    }
    assert!(files.len() > 50, "walked only {} files", files.len());

    let mut offences = Vec::new();
    let mut saw_config = false;
    for path in &files {
        let rel = path.strip_prefix(root).unwrap().to_string_lossy();
        let text = std::fs::read_to_string(path).unwrap();
        if rel == CONFIG_FILE {
            saw_config = true;
            assert!(
                text.contains("env::var"),
                "{CONFIG_FILE} no longer reads the environment"
            );
            continue;
        }
        for (n, line) in text.lines().enumerate() {
            if line.contains("env::var") {
                offences.push(format!("{rel}:{}: reads the environment", n + 1));
            }
            if code_of(line).contains(NAME_PREFIX) {
                offences.push(format!(
                    "{rel}:{}: names a variable outside a comment",
                    n + 1
                ));
            }
        }
    }
    assert!(saw_config, "{CONFIG_FILE} is missing");
    assert!(
        offences.is_empty(),
        "inputs belong in Config ({CONFIG_FILE}):\n{}",
        offences.join("\n")
    );
}

#[test]
fn code_of_stops_at_comments_but_not_inside_strings() {
    assert_eq!(code_of("let a = 1; // MLCASK_TRACE"), "let a = 1; ");
    assert_eq!(code_of("/// `MLCASK_TRACE` names a path"), "");
    assert_eq!(
        code_of(r#"get("http://x/MLCASK_TRACE") // why"#),
        r#"get("http://x/MLCASK_TRACE") "#
    );
    assert_eq!(code_of(r#"let q = "\"//"; // c"#), r#"let q = "\"//"; "#);
}
