//! Histogram (HG): 768-bin RGB histogram of an image.

use mr_core::{Emitter, MapReduceJob};

/// One RGB pixel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pixel {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

/// Builds the per-channel intensity histogram of an image: 256 bins per
/// channel, 768 keys total — a key range known a priori, so the default
/// container is the fixed array.
///
/// HG is one of the paper's two "computationally light" applications
/// (with LR): the map does three table lookups per pixel and nothing else,
/// so the SPSC queue overhead dominates under RAMR and the paper reports a
/// ~3x *slowdown* versus Phoenix++ — the suitability analysis of §IV-E
/// predicts exactly this from HG's low IPB.
///
/// Keys: `0..256` red, `256..512` green, `512..768` blue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Histogram;

/// Number of histogram bins (keys).
const HISTOGRAM_BINS: usize = 768;

impl MapReduceJob for Histogram {
    type Input = Pixel;
    type Key = u16;
    type Value = u64;

    fn map(&self, task: &[Pixel], emit: &mut Emitter<'_, u16, u64>) {
        emit.reborrow(|emit| self.map_to(task, emit));
    }

    /// Three array-keyed pairs a pixel, a few ns each: the runtimes' sink
    /// is inlined here rather than called through `map`'s `dyn` emitter.
    fn map_to<S: FnMut(u16, u64)>(&self, task: &[Pixel], emit: &mut Emitter<'_, u16, u64, S>) {
        for p in task {
            emit.emit(u16::from(p.r), 1);
            emit.emit(256 + u16::from(p.g), 1);
            emit.emit(512 + u16::from(p.b), 1);
        }
    }

    fn combine(&self, acc: &mut u64, incoming: u64) {
        *acc += incoming;
    }

    fn key_space(&self) -> Option<usize> {
        Some(HISTOGRAM_BINS)
    }

    fn key_index(&self, key: &u16) -> usize {
        *key as usize
    }

    fn name(&self) -> &str {
        "histogram"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_emissions_per_pixel_in_distinct_channels() {
        let mut pairs = Vec::new();
        let mut sink = |k: u16, v: u64| pairs.push((k, v));
        let pixels = [Pixel { r: 0, g: 0, b: 0 }, Pixel { r: 255, g: 128, b: 7 }];
        Histogram.map(&pixels, &mut Emitter::new(&mut sink));
        assert_eq!(pairs, [(0, 1), (256, 1), (512, 1), (255, 1), (384, 1), (519, 1)]);
    }

    #[test]
    fn key_space_is_768_and_indices_are_in_range() {
        assert_eq!(Histogram.key_space(), Some(768));
        for key in [0u16, 255, 256, 511, 512, 767] {
            assert!(Histogram.key_index(&key) < 768);
        }
    }

    #[test]
    fn channel_ranges_do_not_overlap() {
        // Max red key < min green key, etc.
        assert!(Histogram.key_index(&255) < Histogram.key_index(&256));
        assert!(Histogram.key_index(&511) < Histogram.key_index(&512));
    }
}
