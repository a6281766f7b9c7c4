//! Word Count (WC): the canonical MapReduce workload.

use mr_core::{Emitter, MapReduceJob};
use ramr_containers::CompactKey;

/// Counts word occurrences across lines of text.
///
/// Input elements are lines; the map function splits each line on ASCII
/// whitespace, lower-cases the word and emits `(word, 1)`. The key set is
/// unbounded, so WC is the one paper application whose *default* container
/// is already a hash table.
///
/// Keys are [`CompactKey`]s: words up to
/// [`CompactKey::INLINE_CAPACITY`] bytes (the overwhelming majority in
/// natural-language text) are lower-cased straight into an inline buffer,
/// so the map hot loop performs **zero heap allocations per word** — the
/// `String`-keyed formulation ([`WordCountString`]) pays one allocation per
/// emission in `to_ascii_lowercase`.
///
/// # Example
///
/// ```
/// use mr_core::Emitter;
/// use mr_core::MapReduceJob;
/// use mr_apps::WordCount;
/// use ramr_containers::CompactKey;
///
/// let mut pairs = Vec::new();
/// let mut sink = |k: CompactKey, v: u64| pairs.push((k, v));
/// let mut emitter = Emitter::new(&mut sink);
/// WordCount.map(&["The cat the hat".to_string()], &mut emitter);
/// assert_eq!(pairs.iter().filter(|(w, _)| w.as_str() == "the").count(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WordCount;

impl MapReduceJob for WordCount {
    type Input = String;
    type Key = CompactKey;
    type Value = u64;

    fn map(&self, task: &[String], emit: &mut Emitter<'_, CompactKey, u64>) {
        for line in task {
            for word in line.split_ascii_whitespace() {
                emit.emit(CompactKey::ascii_lowercase(word), 1);
            }
        }
    }

    fn combine(&self, acc: &mut u64, incoming: u64) {
        *acc += incoming;
    }

    fn name(&self) -> &str {
        "word-count"
    }

    /// Word counting is a pure function of the task's lines: a retried
    /// task re-emits exactly the pairs a discarded attempt staged, so
    /// re-execution under staged retries cannot change the output.
    fn is_retry_safe(&self) -> bool {
        true
    }
}

/// [`WordCount`] with `String` keys — the pre-`CompactKey` formulation
/// (one heap allocation per emitted word in `to_ascii_lowercase`), kept as
/// the control the differential suite checks the compact key path against.
///
/// Produces the same counts as [`WordCount`] for the same lines; only the
/// key representation differs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WordCountString;

impl MapReduceJob for WordCountString {
    type Input = String;
    type Key = String;
    type Value = u64;

    fn map(&self, task: &[String], emit: &mut Emitter<'_, String, u64>) {
        for line in task {
            for word in line.split_ascii_whitespace() {
                emit.emit(word.to_ascii_lowercase(), 1);
            }
        }
    }

    fn combine(&self, acc: &mut u64, incoming: u64) {
        *acc += incoming;
    }

    fn name(&self) -> &str {
        "word-count-string"
    }

    fn is_retry_safe(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(lines: &[&str]) -> Vec<(CompactKey, u64)> {
        let input: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        let mut table = std::collections::BTreeMap::new();
        let mut sink = |k: CompactKey, v: u64| {
            *table.entry(k).or_insert(0) += v;
        };
        let mut emitter = Emitter::new(&mut sink);
        WordCount.map(&input, &mut emitter);
        table.into_iter().collect()
    }

    #[test]
    fn splits_on_whitespace_and_lowercases() {
        let counts = count(&["Map  reduce\tMAP", "reduce"]);
        assert_eq!(counts, [("map".into(), 2), ("reduce".into(), 2)]);
    }

    #[test]
    fn empty_lines_emit_nothing() {
        assert!(count(&["", "   ", "\t\t"]).is_empty());
    }

    #[test]
    fn no_key_space_declared() {
        assert!(WordCount.key_space().is_none(), "WC keys are unbounded");
        assert!(WordCountString.key_space().is_none());
    }

    #[test]
    fn combine_is_addition() {
        let mut acc = 3;
        WordCount.combine(&mut acc, 4);
        assert_eq!(acc, 7);
    }

    #[test]
    fn short_words_never_spill_to_the_heap() {
        let counts =
            count(&["A-Quite-Ordinary-Word but-also-one-lowercased-word-longer-than-the-buffer"]);
        assert_eq!(counts.len(), 2);
        assert!(counts[0].0.is_inline(), "22-byte words stay inline: {:?}", counts[0].0);
        assert!(!counts[1].0.is_inline(), "long words spill: {:?}", counts[1].0);
    }

    #[test]
    fn string_variant_produces_identical_counts() {
        let input: Vec<String> = vec!["The CAT the hat".into(), "a dog A DOG".into(), "".into()];
        let mut compact = std::collections::BTreeMap::new();
        let mut sink = |k: CompactKey, v: u64| *compact.entry(String::from(k)).or_insert(0u64) += v;
        WordCount.map(&input, &mut Emitter::new(&mut sink));
        let mut plain = std::collections::BTreeMap::new();
        let mut sink = |k: String, v: u64| *plain.entry(k).or_insert(0u64) += v;
        WordCountString.map(&input, &mut Emitter::new(&mut sink));
        assert_eq!(compact, plain);
    }
}
