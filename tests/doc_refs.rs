//! Docs that fail when they rot: every code reference in README.md,
//! DESIGN.md and EXPERIMENTS.md must resolve against the tree. CHANGES.md
//! and ROADMAP.md are history and are not checked.
//!
//! Inline code spans (outside fenced blocks) are checked by three rules:
//!
//! 1. a `path/to/file.rs` (after stripping `:line` / `::item`) names a
//!    file under `crates src tests examples benchmark`;
//! 2. a `ccm_*` name (metric, crate) appears in some `.rs` file — tokens
//!    ending in `*` are families, not names, and are skipped;
//! 3. the last segment of an `A::b` path appears as a word in `.rs` source.
//!
//! And the whole text, fenced blocks included, by three more:
//!
//! 4. every `--bin NAME` has a `src/bin/NAME.rs`;
//! 5. every `-p CRATE` names a workspace package;
//! 6. every Cargo feature named — in `--features A,B`, in
//!    `features = ["A"]`, as an inline `pkg/feature` span, or as an inline
//!    span followed by the word "feature" — is declared under a
//!    `[features]` table (a `pkg/feature` under that package's).

use std::fs;
use std::path::Path;

const DOCS: &[&str] = &["README.md", "DESIGN.md", "EXPERIMENTS.md"];
const CODE_ROOTS: &[&str] = &["crates", "src", "tests", "examples", "benchmark"];

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Every `.rs` file under `dir`. Build output and dot-directories are
/// skipped.
fn rs_files(dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let (path, name) = (entry.path(), entry.file_name());
        let name = name.to_string_lossy();
        if path.is_dir() && name != "target" && !name.starts_with('.') {
            rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path.to_string_lossy().into_owned());
        }
    }
}

/// Whether `word` occurs in `hay` with no identifier character on
/// either side.
fn contains_word(hay: &str, word: &str) -> bool {
    hay.match_indices(word).any(|(i, _)| {
        let before = hay[..i].chars().next_back();
        let after = hay[i + word.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

/// Every inline code span, fenced blocks excluded, with the first word of
/// the prose after it (markdown punctuation stripped). Spans may wrap lines
/// inside a paragraph; a wrap reads as a space.
fn code_spans(doc: &str) -> Vec<(String, String)> {
    let mut fenced = false;
    let prose: Vec<&str> = doc
        .lines()
        .filter(|line| {
            let fence = line.trim_start().starts_with("```");
            fenced ^= fence;
            !fence && !fenced
        })
        .collect();
    let mut out = Vec::new();
    for para in prose.join("\n").split("\n\n") {
        let parts: Vec<&str> = para.split('`').collect();
        for pair in parts[1..].chunks(2) {
            let next = pair
                .get(1)
                .and_then(|after| after.split_whitespace().next());
            let next = next.unwrap_or("").trim_matches(|c: char| !is_ident(c));
            out.push((pair[0].replace('\n', " "), next.to_string()));
        }
    }
    out
}

/// Rule 3's tokens: each `A::b[::c…]` in `span`, as (path, last segment).
fn colon_paths(span: &str) -> Vec<(&str, &str)> {
    let ident = |s: &str| s.chars().next().is_some_and(|c| !c.is_ascii_digit());
    span.split(|c: char| !(is_ident(c) || c == ':'))
        .map(|run| run.trim_end_matches(':'))
        .filter_map(|run| {
            let (first, last) = (run.split("::").next()?, run.rsplit("::").next()?);
            (run.contains("::") && ident(first) && ident(last)).then_some((run, last))
        })
        .collect()
}

/// The word after each `flag` (`--bin`, `-p`, `--features`), markdown punctuation
/// around either word ignored.
fn flag_args<'a>(text: &'a str, flag: &str) -> Vec<&'a str> {
    let bare = |w: &'a str| w.trim_matches(|c: char| !(is_ident(c) || c == '-'));
    let words: Vec<&str> = text.split_whitespace().map(bare).collect();
    words
        .windows(2)
        .filter(|w| w[0] == flag && !w[1].is_empty())
        .map(|w| w[1])
        .collect()
}

/// The root package and every `crates/*` package: manifest name and the
/// features its `[features]` table declares.
fn packages(root: &Path) -> Vec<(String, Vec<String>)> {
    let crates = fs::read_dir(root.join("crates")).unwrap().flatten();
    crates
        .map(|entry| entry.path().join("Cargo.toml"))
        .chain([root.join("Cargo.toml")])
        .filter_map(|manifest| {
            let text = fs::read_to_string(manifest).ok()?;
            let name = text
                .lines()
                .find_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))?;
            let features = text
                .lines()
                .skip_while(|l| l.trim() != "[features]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter_map(|l| Some(l.split_once('=')?.0.trim().to_string()))
                .filter(|f| !f.is_empty() && !f.starts_with('#'))
                .collect();
            Some((name.to_string(), features))
        })
        .collect()
}

/// Every feature named by `--features A,B` or `features = ["A", "B"]`.
fn named_features(text: &str) -> Vec<&str> {
    let mut out: Vec<&str> = flag_args(text, "--features")
        .into_iter()
        .flat_map(|list| list.split(','))
        .collect();
    const TABLE: &str = "features = [";
    for (i, _) in text.match_indices(TABLE) {
        let list = text[i + TABLE.len()..].split(']').next().unwrap_or("");
        out.extend(list.split('"').skip(1).step_by(2));
    }
    out
}

#[test]
fn every_doc_reference_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in CODE_ROOTS {
        rs_files(&root.join(dir), &mut files);
    }
    let source: String = files
        .iter()
        .map(|f| fs::read_to_string(f).unwrap())
        .collect();
    let has_file = |suffix: String| files.iter().any(|f| f.ends_with(&suffix));
    let packages = packages(root);
    let is_package = |name: &str| packages.iter().any(|(p, _)| p == name);
    // `pkg/feature` must be declared by that package; a bare name by any.
    let declared = |feature: &str| match feature.split_once('/') {
        Some((pkg, f)) => packages
            .iter()
            .any(|(p, fs)| p == pkg && fs.iter().any(|x| x == f)),
        None => packages
            .iter()
            .any(|(_, fs)| fs.iter().any(|x| x == feature)),
    };
    let path_char = |c: char| is_ident(c) || "./-".contains(c);

    let mut unresolved = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).unwrap();
        let mut miss =
            |rule: u8, what: &str| unresolved.push(format!("{doc}: rule {rule}: {what}"));
        for (span, next) in code_spans(&text) {
            let pkg_feature = span.split_once('/').is_some_and(|(pkg, f)| {
                is_package(pkg) && f.chars().all(|c| is_ident(c) || c == '-')
            });
            if (pkg_feature || matches!(next.as_str(), "feature" | "features")) && !declared(&span)
            {
                miss(6, &span);
            }
            for path in span.split(|c| !path_char(c)).filter(|w| w.ends_with(".rs")) {
                if !has_file(format!("/{path}")) {
                    miss(1, path);
                }
            }
            let words = span.split(|c: char| !(is_ident(c) || c == '*'));
            for name in words.filter(|w| w.starts_with("ccm_") && !w.ends_with('*')) {
                if !source.contains(name) {
                    miss(2, name);
                }
            }
            for (path, last) in colon_paths(&span) {
                if !contains_word(&source, last) {
                    miss(3, path);
                }
            }
        }
        for bin in flag_args(&text, "--bin") {
            if !has_file(format!("/src/bin/{bin}.rs")) {
                miss(4, &format!("--bin {bin}"));
            }
        }
        for pkg in flag_args(&text, "-p") {
            if !is_package(pkg) {
                miss(5, &format!("-p {pkg}"));
            }
        }
        for feature in named_features(&text) {
            if !declared(feature) {
                miss(6, &format!("feature {feature}"));
            }
        }
    }
    assert!(
        unresolved.is_empty(),
        "{} doc references name nothing in the tree:\n  {}",
        unresolved.len(),
        unresolved.join("\n  ")
    );
}
