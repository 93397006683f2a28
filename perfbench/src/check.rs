//! Conservation checker for one round.
//!
//! Every pushed value is tagged `(producer, seq)`: producer `p` pushes
//! `seq = 1, 2, …` in order, so after the round (and a full drain) the
//! values producer `p` pushed are exactly `1..=pushed[p]`. Each popping
//! thread marks what it popped in a private bitmap per producer; merging
//! the bitmaps finds values popped twice, and the unmarked bits of
//! `1..=pushed[p]` are the values the structure lost.

/// Bits reserved for the sequence number; the producer id sits above.
const SEQ_BITS: u32 = 40;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// The value producer `p` pushes as its `seq`-th element (`seq ≥ 1`).
pub fn tag(producer: usize, seq: u64) -> u64 {
    debug_assert!((1..=SEQ_MASK).contains(&seq));
    ((producer as u64) << SEQ_BITS) | seq
}

/// One thread's view of a round: what it pushed and what it popped.
#[derive(Debug, Clone)]
pub struct Tally {
    /// Values pushed, per producer (only the owner's entry moves).
    pushed: Vec<u64>,
    pushed_sum: u128,
    popped: u64,
    popped_sum: u128,
    /// `seen[p]` bit `seq` is set once value `(p, seq)` was popped.
    seen: Vec<Vec<u64>>,
    dup: u64,
    foreign: u64,
}

/// The outcome of a round's check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Pushed values never popped (after the drain).
    pub lost: u64,
    /// Pops that returned a value already popped.
    pub dup: u64,
    /// Pops or peeks that returned a value nobody pushed.
    pub foreign: u64,
    /// Pushed count equals popped count.
    pub count_ok: bool,
    /// Sum of pushed values equals sum of popped values.
    pub sum_ok: bool,
}

impl Verdict {
    /// `true` when every value pushed was popped exactly once.
    pub fn ok(&self) -> bool {
        self.lost == 0 && self.dup == 0 && self.foreign == 0 && self.count_ok && self.sum_ok
    }
}

impl Tally {
    /// An empty tally over `producers` producer ids.
    pub fn new(producers: usize) -> Self {
        Self {
            pushed: vec![0; producers],
            pushed_sum: 0,
            popped: 0,
            popped_sum: 0,
            seen: vec![Vec::new(); producers],
            dup: 0,
            foreign: 0,
        }
    }

    /// Returns the next value `producer` pushes and records it.
    #[inline]
    pub fn next_push(&mut self, producer: usize) -> u64 {
        self.pushed[producer] += 1;
        let v = tag(producer, self.pushed[producer]);
        self.pushed_sum += v as u128;
        v
    }

    /// Records a popped value.
    #[inline]
    pub fn popped(&mut self, v: u64) {
        self.popped += 1;
        self.popped_sum += v as u128;
        let (p, seq) = ((v >> SEQ_BITS) as usize, v & SEQ_MASK);
        if p >= self.seen.len() || seq == 0 {
            self.foreign += 1;
            return;
        }
        let bits = &mut self.seen[p];
        let (word, bit) = ((seq / 64) as usize, seq % 64);
        if word >= bits.len() {
            bits.resize((word + 1).next_power_of_two(), 0);
        }
        if bits[word] & (1 << bit) != 0 {
            self.dup += 1;
        }
        bits[word] |= 1 << bit;
    }

    /// Records a peeked value: it must at least name a real producer.
    #[inline]
    pub fn peeked(&mut self, v: u64) {
        if (v >> SEQ_BITS) as usize >= self.seen.len() || v & SEQ_MASK == 0 {
            self.foreign += 1;
        }
    }

    /// Folds another thread's tally into this one; a value both
    /// popped counts as a duplicate.
    pub fn merge(&mut self, other: Tally) {
        for (a, b) in self.pushed.iter_mut().zip(&other.pushed) {
            *a += b;
        }
        self.pushed_sum += other.pushed_sum;
        self.popped += other.popped;
        self.popped_sum += other.popped_sum;
        self.dup += other.dup;
        self.foreign += other.foreign;
        for (mine, theirs) in self.seen.iter_mut().zip(other.seen) {
            if mine.len() < theirs.len() {
                mine.resize(theirs.len(), 0);
            }
            for (a, b) in mine.iter_mut().zip(&theirs) {
                self.dup += u64::from((*a & b).count_ones());
                *a |= b;
            }
        }
    }

    /// Checks the tally once the structure has been drained into it.
    pub fn verdict(&self) -> Verdict {
        let mut lost = 0;
        let mut foreign = self.foreign;
        for (p, bits) in self.seen.iter().enumerate() {
            let n = self.pushed[p];
            let mut present = 0;
            for (w, &word) in bits.iter().enumerate() {
                for bit in 0..64u64 {
                    if word & (1 << bit) != 0 {
                        let seq = w as u64 * 64 + bit;
                        if seq <= n {
                            present += 1;
                        } else {
                            foreign += 1;
                        }
                    }
                }
            }
            lost += n - present;
        }
        Verdict {
            lost,
            dup: self.dup,
            foreign,
            count_ok: self.pushed.iter().sum::<u64>() == self.popped,
            sum_ok: self.pushed_sum == self.popped_sum,
        }
    }
}

/// Feeds the checker one lost value and one duplicated value and
/// returns whether it counted exactly those, after confirming that a
/// clean history passes. The benchmark refuses to run if this fails.
pub fn selftest() -> bool {
    let mut clean = Tally::new(2);
    let mut faulty = Tally::new(2);
    let pushed: Vec<u64> = (0..4).map(|_| clean.next_push(0)).collect();
    for _ in 0..4 {
        faulty.next_push(0);
    }
    for &v in &pushed {
        clean.popped(v);
    }
    // Pop 1, 2, 2, 3 on two threads: value 4 is lost and value 2 is
    // popped twice, once by each thread, so only the merge sees it.
    let mut other = Tally::new(2);
    faulty.popped(pushed[0]);
    faulty.popped(pushed[1]);
    other.popped(pushed[1]);
    other.popped(pushed[2]);
    faulty.merge(other);
    let v = faulty.verdict();
    clean.verdict().ok() && v.lost == 1 && v.dup == 1 && v.foreign == 0 && !v.ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selftest_catches_a_lost_and_a_duplicated_value() {
        assert!(selftest());
    }

    #[test]
    fn foreign_values_are_counted() {
        let mut t = Tally::new(1);
        t.next_push(0);
        t.popped(tag(0, 1));
        t.popped(tag(3, 1));
        t.popped(tag(0, 9));
        let v = t.verdict();
        assert_eq!((v.lost, v.dup, v.foreign), (0, 0, 2));
    }
}
