//! Token-based balancing (Comte, PAPERS.md): each replica holds a token
//! count; a subrequest goes to the replica of the shard's block holding
//! the most tokens (ties break toward the lowest index), spends one token
//! there, and the token is minted back when the subrequest completes. The
//! count is therefore `TOKEN_INIT` − in-flight: a stateless-per-query,
//! feedback-driven balancer that needs no probes and no latency estimates.

/// Tokens each replica starts with.
const TOKEN_INIT: u32 = 2;

/// The token balancer. Counts may go negative under overload (every
/// replica saturated); the argmax rule still spreads the excess evenly.
pub struct TokenBalancer {
    tokens: Vec<i64>,
}

impl TokenBalancer {
    /// `TOKEN_INIT` tokens on each of `n_replicas` replicas.
    pub fn new(n_replicas: usize) -> Self {
        Self {
            tokens: vec![i64::from(TOKEN_INIT); n_replicas],
        }
    }

    /// Picks the replica of the block `base .. base + r` holding the most
    /// tokens and spends one there.
    #[inline]
    pub fn pick(&mut self, base: u32, r: u32) -> u32 {
        let mut best = base;
        for cand in base + 1..base + r {
            if self.tokens[cand as usize] > self.tokens[best as usize] {
                best = cand;
            }
        }
        self.tokens[best as usize] -= 1;
        best
    }

    /// Mints `replica`'s token back when its subrequest completes.
    #[inline]
    pub fn on_complete(&mut self, replica: u32) {
        self.tokens[replica as usize] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spends_and_mints_tokens() {
        let mut p = TokenBalancer::new(3);
        // All equal: lowest index wins, then rotates as tokens deplete.
        assert_eq!(p.pick(0, 3), 0);
        assert_eq!(p.pick(0, 3), 1);
        assert_eq!(p.pick(0, 3), 2);
        assert_eq!(p.pick(0, 3), 0);
        // Four in flight: init − in-flight per replica.
        assert_eq!(p.tokens, [0, 1, 1]);
        // A completion refills replica 2, making it the unique argmax.
        p.on_complete(2);
        p.on_complete(2);
        assert_eq!(p.tokens[2], 3);
        assert_eq!(p.pick(0, 3), 2);
        assert_eq!(p.tokens, [0, 1, 2]);
    }

    #[test]
    fn overload_goes_negative_but_stays_even() {
        let mut p = TokenBalancer::new(2);
        for _ in 0..10 {
            p.pick(0, 2);
        }
        assert_eq!(p.tokens[0], p.tokens[1]);
        assert!(p.tokens[0] < 0);
    }
}
