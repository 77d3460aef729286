//! The FNV-1a 64-bit hash every determinism digest is written in.

/// An FNV-1a 64 hasher, starting at the offset basis. Each
/// [`Fnv1a::eat`] XORs one `u64` into the state and multiplies by the FNV
/// prime, so eating one byte per call is the published FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `word` in.
    pub fn eat(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// The digest of everything eaten so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_at_a_time_matches_the_published_vectors() {
        for (input, expected) in [
            ("", 0xcbf2_9ce4_8422_2325u64),
            ("a", 0xaf63_dc4c_8601_ec8c),
            ("foobar", 0x8594_4171_f739_67e8),
        ] {
            let mut h = Fnv1a::default();
            for b in input.bytes() {
                h.eat(u64::from(b));
            }
            assert_eq!(h.finish(), expected, "{input:?}");
        }
    }
}
