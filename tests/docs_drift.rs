//! Docs-drift guard: the documented `RAMR_*` tuning surface must match the
//! one `RuntimeConfig::from_env` actually reads, in both directions.
//!
//! README.md's knob table and TUNING.md's cookbook each list every env var;
//! `crates/mr-core/src/config.rs` is the source of truth (its `from_env`
//! reads each var, its tests exercise each, and its doc comment enumerates
//! them — so a var dropped from the code without updating its own docs also
//! fails `cargo doc` review, while this test catches the README/TUNING.md
//! copies). A knob added to any one surface without the others fails here
//! with the missing names spelled out.
//!
//! The same holds for the docs' other promises: every `cargo` command they
//! show must name a package and target that exist, and every `DESIGN §`
//! reference in the docs and the code must name a heading of DESIGN.md.

use std::collections::BTreeSet;
use std::path::Path;

/// Extracts every `RAMR_<NAME>` token from `text` (maximal runs of
/// `[A-Z0-9_]` after the prefix). Bare `RAMR_` (as in the prose "`RAMR_*`
/// variables") is not a token.
fn ramr_env_tokens(text: &str) -> BTreeSet<String> {
    let bytes = text.as_bytes();
    let mut found = BTreeSet::new();
    let mut from = 0;
    while let Some(at) = text[from..].find("RAMR_") {
        let start = from + at;
        let mut end = start + "RAMR_".len();
        while end < bytes.len()
            && (bytes[end].is_ascii_uppercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        // Require at least one character beyond the prefix, and not a
        // continuation of a longer identifier (e.g. `X_RAMR_Y`).
        let standalone =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        if end > start + "RAMR_".len() && standalone {
            found.insert(text[start..end].trim_end_matches('_').to_string());
        }
        from = end;
    }
    found
}

fn read(rel: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("cannot read {rel}: {e}"))
}

fn assert_same_surface(doc_name: &str, documented: &BTreeSet<String>, code: &BTreeSet<String>) {
    let undocumented: Vec<_> = code.difference(documented).collect();
    let phantom: Vec<_> = documented.difference(code).collect();
    assert!(
        undocumented.is_empty(),
        "env vars read by RuntimeConfig::from_env but missing from {doc_name}: \
         {undocumented:?} — add them to the knob table"
    );
    assert!(
        phantom.is_empty(),
        "env vars documented in {doc_name} but not read by RuntimeConfig::from_env: \
         {phantom:?} — remove them or wire them up in config.rs"
    );
}

#[test]
fn readme_env_table_matches_config_from_env() {
    let code = ramr_env_tokens(&read("crates/mr-core/src/config.rs"));
    assert!(
        code.contains("RAMR_WORKERS") && code.len() >= 10,
        "token scan of config.rs looks broken: {code:?}"
    );
    assert_same_surface("README.md", &ramr_env_tokens(&read("README.md")), &code);
}

#[test]
fn tuning_cookbook_matches_config_from_env() {
    let code = ramr_env_tokens(&read("crates/mr-core/src/config.rs"));
    assert_same_surface("TUNING.md", &ramr_env_tokens(&read("TUNING.md")), &code);
}

#[test]
fn knob_table_is_the_single_source_for_env_names() {
    // `mr_core::ENV_KNOBS` is the one table every surface parses through.
    // The token scan of config.rs (table rows plus the `from_env` doc
    // comment) must yield exactly the table's env names — an env var
    // mentioned in config.rs but absent from the table (or vice versa)
    // means a knob exists on one surface only.
    let table: BTreeSet<String> =
        mr_core::ENV_KNOBS.iter().map(|knob| knob.env.to_string()).collect();
    let scanned = ramr_env_tokens(&read("crates/mr-core/src/config.rs"));
    assert_eq!(
        scanned, table,
        "config.rs mentions env vars that differ from the ENV_KNOBS table — \
         every knob must live in the table, and only there"
    );
}

#[test]
fn cli_help_lists_every_knob_flag() {
    // The CLI accepts `--<cli>` for every table row (main.rs builds its
    // flag list from ENV_KNOBS), so the help text must advertise each one.
    let commands = read("crates/cli/src/commands.rs");
    for knob in mr_core::ENV_KNOBS {
        let flag = format!("--{}", knob.cli);
        assert!(
            commands.contains(&flag),
            "CLI help in crates/cli/src/commands.rs does not mention {flag} \
             (the flag for {}); add it to the `run` usage block",
            knob.env
        );
    }
}

#[test]
fn service_doc_knob_table_matches_both_knob_tables() {
    // SERVICE.md is the operator reference for the job server: it must
    // document every `RAMR_SERVE_*` service knob AND every `RAMR_*`
    // runtime knob (clients override them per job), and nothing else.
    let mut code: BTreeSet<String> =
        mr_core::ENV_KNOBS.iter().map(|knob| knob.env.to_string()).collect();
    code.extend(ramr_serve::SERVE_KNOBS.iter().map(|knob| knob.env.to_string()));
    let documented = ramr_env_tokens(&read("SERVICE.md"));
    let undocumented: Vec<_> = code.difference(&documented).collect();
    let phantom: Vec<_> = documented.difference(&code).collect();
    assert!(
        undocumented.is_empty(),
        "knobs missing from SERVICE.md: {undocumented:?} — add them to its tables"
    );
    assert!(
        phantom.is_empty(),
        "env vars documented in SERVICE.md but absent from ENV_KNOBS/SERVE_KNOBS: \
         {phantom:?} — remove them or wire them up"
    );
}

/// Extracts the backticked `ALL_CAPS` tokens between the
/// `protocol-messages` markers in SERVICE.md — the documented wire
/// message names.
fn documented_messages(service: &str) -> BTreeSet<String> {
    let start = service
        .find("<!-- protocol-messages:start -->")
        .expect("SERVICE.md must keep the protocol-messages:start marker");
    let end = service
        .find("<!-- protocol-messages:end -->")
        .expect("SERVICE.md must keep the protocol-messages:end marker");
    let section = &service[start..end];
    let mut found = BTreeSet::new();
    for piece in section.split('`').skip(1).step_by(2) {
        let caps = !piece.is_empty() && piece.bytes().all(|b| b.is_ascii_uppercase() || b == b'_');
        if caps {
            found.insert(piece.to_string());
        }
    }
    found
}

#[test]
fn service_doc_message_reference_matches_the_wire_enums() {
    // Both directions: every request/response kind the serve crate speaks
    // appears in SERVICE.md's message reference, and the reference names
    // no message the code does not speak.
    let mut code: BTreeSet<String> =
        ramr_serve::RequestKind::ALL.iter().map(|k| k.as_str().to_string()).collect();
    code.extend(ramr_serve::ResponseKind::ALL.iter().map(|k| k.as_str().to_string()));
    let documented = documented_messages(&read("SERVICE.md"));
    let undocumented: Vec<_> = code.difference(&documented).collect();
    let phantom: Vec<_> = documented.difference(&code).collect();
    assert!(
        undocumented.is_empty(),
        "wire messages missing from SERVICE.md's protocol reference: {undocumented:?}"
    );
    assert!(
        phantom.is_empty(),
        "SERVICE.md documents messages the serve crate does not speak: {phantom:?}"
    );
}

/// Extracts the backticked kebab-case tokens between the `shed-reasons`
/// markers of one document — the documented typed shed-reason names.
fn documented_shed_reasons(doc: &str, text: &str) -> BTreeSet<String> {
    let start = text
        .find("<!-- shed-reasons:start -->")
        .unwrap_or_else(|| panic!("{doc} must keep the shed-reasons:start marker"));
    let end = text
        .find("<!-- shed-reasons:end -->")
        .unwrap_or_else(|| panic!("{doc} must keep the shed-reasons:end marker"));
    let section = &text[start..end];
    let mut found = BTreeSet::new();
    for piece in section.split('`').skip(1).step_by(2) {
        let kebab = !piece.is_empty() && piece.bytes().all(|b| b.is_ascii_lowercase() || b == b'-');
        if kebab {
            found.insert(piece.to_string());
        }
    }
    found
}

#[test]
fn shed_reason_tables_match_the_typed_enum() {
    // TUNING.md (runtime surface) and SERVICE.md (wire surface) each
    // carry a shed-reason table; both must name exactly the reasons
    // `ShedReason::ALL` can produce — a variant added to the enum
    // without documenting what operators should do about it fails here,
    // as does a documented reason the scheduler can no longer emit.
    let code: BTreeSet<String> =
        ramr::ShedReason::ALL.iter().map(|r| r.as_str().to_string()).collect();
    assert!(code.contains("rate-limited"), "enum scan looks broken: {code:?}");
    for doc in ["TUNING.md", "SERVICE.md"] {
        let documented = documented_shed_reasons(doc, &read(doc));
        let undocumented: Vec<_> = code.difference(&documented).collect();
        let phantom: Vec<_> = documented.difference(&code).collect();
        assert!(
            undocumented.is_empty(),
            "shed reasons missing from {doc}'s table: {undocumented:?}"
        );
        assert!(
            phantom.is_empty(),
            "{doc} documents shed reasons the scheduler cannot emit: {phantom:?}"
        );
    }
}

#[test]
fn cli_help_lists_every_serve_flag() {
    // `ramr serve` accepts `--<cli>` for every SERVE_KNOBS row (main.rs
    // builds the flag list from the table), so help must advertise each.
    let commands = read("crates/cli/src/commands.rs");
    for knob in ramr_serve::SERVE_KNOBS {
        let flag = format!("--{}", knob.cli);
        assert!(
            commands.contains(&flag),
            "CLI help in crates/cli/src/commands.rs does not mention {flag} \
             (the flag for {}); add it to the `serve` usage block",
            knob.env
        );
    }
}

#[test]
fn service_doc_is_linked_and_isolated() {
    // Discoverable: README and DESIGN must link the operator guide.
    assert!(
        read("README.md").contains("SERVICE.md"),
        "README.md must link the SERVICE.md operator guide"
    );
    assert!(
        read("DESIGN.md").contains("SERVICE.md"),
        "DESIGN.md must reference the SERVICE.md operator guide"
    );
    // Isolated: the runtime-knob docs stay scoped to the runtime surface —
    // service knobs live in SERVICE.md only (the strict token-equality
    // tests above enforce the same thing; this spells the rule out).
    for doc in ["README.md", "TUNING.md"] {
        let tokens = ramr_env_tokens(&read(doc));
        let leaked: Vec<_> = tokens.iter().filter(|t| t.starts_with("RAMR_SERVE")).collect();
        assert!(leaked.is_empty(), "{doc} documents service knobs {leaked:?}; see SERVICE.md");
    }
}

#[test]
fn readme_links_the_tuning_cookbook() {
    assert!(
        read("README.md").contains("TUNING.md"),
        "README.md must link the TUNING.md knob cookbook"
    );
    assert!(
        read("DESIGN.md").contains("TUNING.md"),
        "DESIGN.md must reference the TUNING.md knob cookbook"
    );
}

#[test]
fn token_scanner_self_test() {
    let text = "use `RAMR_WORKERS` and RAMR_BATCH_SIZE; the `RAMR_*` family; NOT_RAMR_THIS";
    let tokens = ramr_env_tokens(text);
    assert_eq!(
        tokens.into_iter().collect::<Vec<_>>(),
        vec!["RAMR_BATCH_SIZE".to_string(), "RAMR_WORKERS".to_string()]
    );
}

/// The documents a reader follows as written: every command in them must
/// run and every DESIGN section they cite must exist. The history files
/// (CHANGES.md, CHANGELOG.md, ROADMAP.md) quote what was true when they
/// were written, and `benchmark/README.md` is kept with the benchmark.
const LIVE_DOCS: [&str; 6] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "TUNING.md",
    "SERVICE.md",
    ".claude/skills/verify/SKILL.md",
];

fn repo_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// 1-based line of byte offset `at` in `text`.
fn line_of(text: &str, at: usize) -> usize {
    text[..at].matches('\n').count() + 1
}

/// A cargo package and its targets as `(kind, name)`, kind one of `bin`,
/// `test`, `bench`, `example`.
struct Package {
    name: String,
    targets: BTreeSet<(String, String)>,
}

/// Reads the package in `dir`: the `[[kind]]` tables its manifest declares,
/// plus the targets cargo discovers on its own (`src/main.rs`, `src/bin/`,
/// `tests/`, `benches/`, `examples/`).
fn package_in(dir: &Path) -> Package {
    let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
    let (mut name, mut section) = (String::new(), String::new());
    let mut targets = BTreeSet::new();
    let mut main_is_declared = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        let Some((field, value)) = line.split_once('=') else { continue };
        let value = value.trim().trim_matches('"').to_string();
        match (section.as_str(), field.trim()) {
            ("package", "name") => name = value,
            ("bin" | "test" | "bench" | "example", "name") => {
                targets.insert((section.clone(), value));
            }
            ("bin", "path") => main_is_declared |= value == "src/main.rs",
            _ => {}
        }
    }
    if dir.join("src/main.rs").is_file() && !main_is_declared {
        targets.insert(("bin".to_string(), name.clone()));
    }
    for (kind, sub) in
        [("bin", "src/bin"), ("test", "tests"), ("bench", "benches"), ("example", "examples")]
    {
        let Ok(entries) = std::fs::read_dir(dir.join(sub)) else { continue };
        for path in entries.map(|e| e.unwrap().path()) {
            if path.extension().is_some_and(|ext| ext == "rs") {
                let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
                targets.insert((kind.to_string(), stem));
            }
        }
    }
    Package { name, targets }
}

/// Every package a documented command may name: the workspace members under
/// `crates/`, and the benchmark's own package.
fn packages() -> Vec<Package> {
    let root = repo_root();
    let mut dirs: Vec<_> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs.push(root.join("benchmark"));
    dirs.iter().map(|dir| package_in(dir)).collect()
}

/// Every `cargo …` invocation in a markdown document, with its line: each
/// line of a fenced block (a trailing `\` joins the next line to it), and
/// each inline code span, which may run across a line break.
fn cargo_commands(doc: &str) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    let mut prose = String::with_capacity(doc.len());
    let mut fenced = false;
    let mut pending: Option<(usize, String)> = None;
    for (i, line) in doc.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            prose.push('\n');
            continue;
        }
        if !fenced {
            prose.push_str(line);
            prose.push('\n');
            continue;
        }
        prose.push('\n');
        let (start, mut joined) = pending.take().unwrap_or((i + 1, String::new()));
        match line.strip_suffix('\\') {
            Some(head) => {
                joined.push_str(head);
                pending = Some((start, joined));
            }
            None => {
                joined.push_str(line);
                found.extend(invocations(&joined).map(|cmd| (start, cmd)));
            }
        }
    }
    // Outside the fences, odd pieces between backticks are code spans.
    let mut at = 0;
    for (i, piece) in prose.split('`').enumerate() {
        if i % 2 == 1 {
            let line = line_of(&prose, at);
            found.extend(invocations(&piece.replace('\n', " ")).map(|cmd| (line, cmd)));
        }
        at += piece.len() + 1;
    }
    found.sort();
    found
}

/// The text from each word `cargo` of `code` that is followed by arguments.
fn invocations(code: &str) -> impl Iterator<Item = String> + '_ {
    code.match_indices("cargo ").filter_map(move |(at, _)| {
        let word_start =
            at == 0 || !code[..at].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_');
        word_start.then(|| code[at..].to_string())
    })
}

/// The packages (`-p`/`--package`) and targets (`--bin`/`--test`/`--bench`/
/// `--example`, as `(kind, name)`) one invocation names. Reading stops at
/// `--` (the rest is the program's) and at the end of the shell command;
/// a `$variable` is not a name.
fn named_in(command: &str) -> (Vec<String>, Vec<(String, String)>) {
    let (mut packages, mut targets) = (Vec::new(), Vec::new());
    let mut words = command.split_whitespace().skip(1);
    while let Some(word) = words.next() {
        if word == "--" || word.starts_with('#') || ["|", "||", "&&", "&", ";", ">"].contains(&word)
        {
            break;
        }
        let (flag, inline) = match word.split_once('=') {
            Some((flag, value)) if flag.starts_with("--") => (flag, Some(value.to_string())),
            _ => (word, None),
        };
        let kind = match flag {
            "-p" | "--package" => None,
            "--bin" | "--test" | "--bench" | "--example" => Some(&flag[2..]),
            _ => {
                if word.ends_with(';') || word.ends_with(')') {
                    break;
                }
                continue;
            }
        };
        let Some(value) = inline.or_else(|| words.next().map(str::to_string)) else { break };
        let ends = value.ends_with(';') || value.ends_with(')');
        let value = value.trim_end_matches([';', ')']).to_string();
        if !value.starts_with('$') {
            match kind {
                None => packages.push(value),
                Some(kind) => targets.push((kind.to_string(), value)),
            }
        }
        if ends {
            break;
        }
    }
    (packages, targets)
}

/// What is wrong with one documented invocation, if anything.
fn command_problems(command: &str, packages: &[Package]) -> Vec<String> {
    let (named, targets) = named_in(command);
    let mut problems = Vec::new();
    let mut scope: Vec<&Package> = Vec::new();
    for name in &named {
        match packages.iter().find(|p| &p.name == name) {
            Some(package) => scope.push(package),
            None => problems.push(format!("no package `{name}`")),
        }
    }
    if named.is_empty() {
        // No `-p`: any member of the root workspace (not the benchmark).
        scope = packages.iter().filter(|p| p.name != "ramr-benchmark").collect();
    }
    for (kind, name) in targets {
        if !scope.iter().any(|p| p.targets.contains(&(kind.clone(), name.clone()))) {
            problems.push(format!("no {kind} target `{name}`"));
        }
    }
    problems
}

#[test]
fn every_documented_cargo_command_names_real_packages_and_targets() {
    let packages = packages();
    assert!(
        packages
            .iter()
            .any(|p| p.name == "ramr-cli" && p.targets.contains(&("bin".into(), "ramr".into())))
            && packages.iter().any(|p| p.targets.contains(&("test".into(), "docs_drift".into()))),
        "manifest scan looks broken"
    );
    let mut problems = Vec::new();
    let mut checked = 0;
    for doc in LIVE_DOCS {
        for (line, command) in cargo_commands(&read(doc)) {
            checked += 1;
            for problem in command_problems(&command, &packages) {
                let shown = command.split(" #").next().unwrap_or_default().trim();
                problems.push(format!("{doc}:{line}: {problem} in `{shown}`"));
            }
        }
    }
    assert!(checked > 50, "command scan looks broken: {checked} commands");
    assert!(
        problems.is_empty(),
        "documented commands that cannot run:\n  {}",
        problems.join("\n  ")
    );
}

#[test]
fn command_scanner_self_test() {
    let doc =
        "run `cargo test -p a --test t`, then\n\n```sh\ncargo run --release \\\n  -p b --bin \
               x -- --bin y # not ours\nfor e in p q; do cargo run -p c --example $e; done\n```\n\
               and `cargo bench\n-p d --bench=z` or `Cargo.toml`.\n";
    let commands = cargo_commands(doc);
    let lines: Vec<_> = commands.iter().map(|(line, _)| *line).collect();
    assert_eq!(lines, [1, 4, 6, 8]);
    let named: Vec<_> = commands.iter().map(|(_, cmd)| named_in(cmd)).collect();
    let t = |kind: &str, name: &str| (kind.to_string(), name.to_string());
    assert_eq!(named[0], (vec!["a".to_string()], vec![t("test", "t")]));
    assert_eq!(named[1], (vec!["b".to_string()], vec![t("bin", "x")]));
    assert_eq!(named[2], (vec!["c".to_string()], vec![]));
    assert_eq!(named[3], (vec!["d".to_string()], vec![t("bench", "z")]));
}

/// The section ids DESIGN.md's headings define: the leading number of each
/// `#` heading without its trailing dot (`## 4. Substitutions` is `4`).
fn design_sections(design: &str) -> BTreeSet<String> {
    design
        .lines()
        .filter(|line| line.starts_with('#'))
        .filter_map(|line| line.trim_start_matches('#').split_whitespace().next())
        .map(|id| id.trim_end_matches('.'))
        .filter(|id| id.starts_with(|c: char| c.is_ascii_digit()))
        .map(str::to_string)
        .collect()
}

/// The id of a `§` reference starting at byte `at` of `text` (just past the
/// `§`): a digit, then digits, lowercase letters and dots, less a trailing
/// dot. `None` when no digit follows (a paper section such as `§III-C`).
fn section_id(text: &str, at: usize) -> Option<String> {
    let rest = &text[at..];
    if !rest.starts_with(|c: char| c.is_ascii_digit()) {
        return None;
    }
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c.is_ascii_lowercase() || c == '.'))
        .unwrap_or(rest.len());
    Some(rest[..end].trim_end_matches('.').to_string())
}

/// Skips what may stand between a word and the `§` it points with: spaces,
/// a line break and the comment marker that opens the next line of a Rust
/// comment (`//`, `///`, `//!`), and with `listing` also the separators of a
/// list (`, `, `/`, `and`, `or`). Returns the offset of the `§`, if one is next.
fn next_section_sign(text: &str, mut at: usize, listing: bool) -> Option<usize> {
    loop {
        let rest = &text[at..];
        let skipped = rest.len()
            - rest
                .trim_start_matches(|c: char| {
                    c.is_whitespace() || c == '/' || c == '!' || (listing && c == ',')
                })
                .len();
        at += skipped;
        let rest = &text[at..];
        if rest.starts_with('§') {
            return Some(at + '§'.len_utf8());
        }
        let word = ["and ", "or "].iter().find(|w| listing && rest.starts_with(**w));
        match (skipped, word) {
            (_, Some(word)) => at += word.len(),
            _ => return None,
        }
    }
}

/// Every reference `text` makes to a DESIGN.md section, with its line: the
/// `§<id>` right after `DESIGN` or `DESIGN.md` (or a link to it) — across a
/// line break too — and each `§<id>` listed straight after it
/// (`DESIGN §4, §5`). With `bare`
/// (DESIGN.md itself) every `§` followed by a digit is one.
fn design_refs(text: &str, bare: bool) -> Vec<(usize, String)> {
    let mut refs = Vec::new();
    if bare {
        for (at, _) in text.match_indices('§') {
            if let Some(id) = section_id(text, at + '§'.len_utf8()) {
                refs.push((line_of(text, at), id));
            }
        }
        return refs;
    }
    for (at, _) in text.match_indices("DESIGN") {
        let after_word = at + "DESIGN".len();
        let standalone = !text[..at].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_');
        let end = if text[after_word..].starts_with(".md") { after_word + 3 } else { after_word };
        if !standalone || text[end..].starts_with(|c: char| c.is_ascii_alphanumeric()) {
            continue;
        }
        // A link's target, `[DESIGN.md](DESIGN.md) §4`, points like the word.
        let end = if text[end..].starts_with(')') { end + 1 } else { end };
        let mut next = next_section_sign(text, end, false);
        while let Some(sign) = next {
            let Some(id) = section_id(text, sign) else { break };
            refs.push((line_of(text, sign), id.clone()));
            next = next_section_sign(text, sign + id.len(), true);
        }
    }
    refs
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for path in entries.map(|e| e.unwrap().path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_design_section_reference_names_a_heading() {
    let root = repo_root();
    let design = read("DESIGN.md");
    let sections = design_sections(&design);
    assert!(sections.contains("4") && sections.len() > 8, "heading scan looks broken");
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    for dir in ["tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut sources: Vec<(String, String)> = files
        .iter()
        .map(|path| {
            let name = path.strip_prefix(&root).unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(path).unwrap())
        })
        .collect();
    sources.extend(LIVE_DOCS.iter().map(|doc| (doc.to_string(), read(doc))));
    let mut dangling = Vec::new();
    let mut checked = 0;
    for (name, text) in &sources {
        for (line, id) in design_refs(text, name == "DESIGN.md") {
            checked += 1;
            if !sections.contains(&id) {
                dangling.push(format!("{name}:{line}: §{id}"));
            }
        }
    }
    assert!(checked > 30, "reference scan looks broken: {checked} references");
    assert!(
        dangling.is_empty(),
        "DESIGN section references with no such heading in DESIGN.md:\n  {}",
        dangling.join("\n  ")
    );
}

#[test]
fn section_reference_scanner_self_test() {
    let text = "see DESIGN \u{a7}6.2, \u{a7}6.3 and \u{a7}4. Also (DESIGN.md\n    /// \
                \u{a7}1) but not DESIGNER \u{a7}9, the paper's \u{a7}III-C or DESIGN, \u{a7}8; \
                [DESIGN.md](DESIGN.md) \u{a7}5.";
    let ids: Vec<_> = design_refs(text, false).into_iter().map(|(_, id)| id).collect();
    assert_eq!(ids, ["6.2", "6.3", "4", "1", "5"]);
    let bare: Vec<_> = design_refs(text, true).into_iter().map(|(_, id)| id).collect();
    assert_eq!(bare, ["6.2", "6.3", "4", "1", "9", "8", "5"]);
    let sections = design_sections("# T\n## 1. A\n### 6.2 B\n## Notes\n");
    assert_eq!(sections.into_iter().collect::<Vec<_>>(), ["1", "6.2"]);
}
