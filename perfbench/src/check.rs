//! Output checks applied to every op.

use std::collections::HashMap;

use ivmf_core::accuracy::reconstruction_accuracy;
use ivmf_core::IntervalSvd;
use ivmf_interval::IntervalMatrix;

/// Fails when any factor entry is non-finite or has `lo > hi`.
pub fn check_factors(svd: &IntervalSvd) -> Result<(), String> {
    for (name, m) in [("U", &svd.u), ("V", &svd.v)] {
        for (&l, &h) in m.lo().as_slice().iter().zip(m.hi().as_slice()) {
            if !l.is_finite() || !h.is_finite() {
                return Err(format!("non-finite entry in {name}: [{l}, {h}]"));
            }
            if l > h {
                return Err(format!("inverted entry in {name}: [{l}, {h}]"));
            }
        }
    }
    for s in &svd.sigma {
        let (l, h) = (s.lo(), s.hi());
        if !l.is_finite() || !h.is_finite() || l > h {
            return Err(format!("bad core value [{l}, {h}]"));
        }
    }
    Ok(())
}

/// Definition-5 harmonic-mean accuracy of `svd` against `original`, failing
/// below `floor`.
pub fn check_accuracy(
    original: &IntervalMatrix,
    svd: &IntervalSvd,
    floor: f64,
) -> Result<f64, String> {
    let rec = svd.reconstruct().map_err(|e| format!("reconstruct: {e}"))?;
    let hm = reconstruction_accuracy(original, &rec)
        .map_err(|e| format!("accuracy: {e}"))?
        .harmonic_mean;
    if hm.is_nan() || hm < floor {
        return Err(format!("accuracy {hm} below the floor {floor}"));
    }
    Ok(hm)
}

/// FNV-1a over the bit patterns of every factor entry.
pub fn digest(svd: &IntervalSvd) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |x: f64| {
        h ^= x.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for m in [&svd.u, &svd.v] {
        m.lo()
            .as_slice()
            .iter()
            .chain(m.hi().as_slice())
            .for_each(|&x| fold(x));
    }
    for s in &svd.sigma {
        fold(s.lo());
        fold(s.hi());
    }
    h
}

/// The first ISVD4 digest seen per input; later ops on the same input must
/// reproduce it bit for bit.
#[derive(Debug, Default)]
pub struct Digests {
    first: HashMap<u64, u64>,
    /// Ops whose digest was compared against an earlier op's.
    pub compared: u64,
}

impl Digests {
    pub fn check(&mut self, input: u64, svd: &IntervalSvd) -> Result<(), String> {
        let d = digest(svd);
        match self.first.get(&input) {
            None => {
                self.first.insert(input, d);
                Ok(())
            }
            Some(&first) => {
                self.compared += 1;
                if first == d {
                    Ok(())
                } else {
                    Err(format!(
                        "ISVD4 factors of input {input} changed: digest {d:016x}, \
                         first op {first:016x}"
                    ))
                }
            }
        }
    }
}
