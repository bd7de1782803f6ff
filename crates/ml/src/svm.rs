//! Support Vector Machine trained with Sequential Minimal Optimization.
//!
//! The paper's Machine-learning baseline is an SVM over bag-of-words +
//! positional features (§3.5), implemented there with Scikit-learn and
//! citing Lin & Lin's study of sigmoid kernels under SMO [63]. This is a
//! Platt-style simplified SMO over sparse feature vectors with linear,
//! RBF and sigmoid kernels.

use covidkg_rand::rngs::SmallRng;
use covidkg_rand::Rng;
use covidkg_rand::SeedableRng;

/// Sparse feature vector: sorted `(feature, value)` pairs.
pub type SparseVector = Vec<(u32, f32)>;

/// Kernel functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// `K(a,b) = a·b`
    Linear,
    /// `K(a,b) = exp(−γ‖a−b‖²)`
    Rbf {
        /// Width parameter γ.
        gamma: f32,
    },
    /// `K(a,b) = tanh(α a·b + c)` — the kernel of [63].
    Sigmoid {
        /// Slope α.
        alpha: f32,
        /// Offset c.
        c: f32,
    },
}

impl Kernel {
    /// Evaluate the kernel on two sparse vectors.
    pub fn eval(&self, a: &SparseVector, b: &SparseVector) -> f32 {
        match *self {
            Kernel::Linear => sparse_dot(a, b),
            Kernel::Rbf { gamma } => {
                let d2 = sparse_sq_dist(a, b);
                (-gamma * d2).exp()
            }
            Kernel::Sigmoid { alpha, c } => (alpha * sparse_dot(a, b) + c).tanh(),
        }
    }
}

fn sparse_dot(a: &SparseVector, b: &SparseVector) -> f32 {
    let (mut i, mut j, mut acc) = (0usize, 0usize, 0.0f32);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                acc += a[i].1 * b[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

fn sparse_sq_dist(a: &SparseVector, b: &SparseVector) -> f32 {
    let (mut i, mut j, mut acc) = (0usize, 0usize, 0.0f32);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(&(fa, va)), Some(&(fb, vb))) => match fa.cmp(&fb) {
                std::cmp::Ordering::Less => {
                    acc += va * va;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    acc += vb * vb;
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let d = va - vb;
                    acc += d * d;
                    i += 1;
                    j += 1;
                }
            },
            (Some(&(_, va)), None) => {
                acc += va * va;
                i += 1;
            }
            (None, Some(&(_, vb))) => {
                acc += vb * vb;
                j += 1;
            }
            (None, None) => break,
        }
    }
    acc
}

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct SvmConfig {
    /// Kernel function.
    pub kernel: Kernel,
    /// Soft-margin penalty C.
    pub c: f32,
    /// KKT violation tolerance.
    pub tol: f32,
    /// Stop after this many consecutive passes without α updates.
    pub max_passes: usize,
    /// Hard cap on optimization sweeps.
    pub max_iters: usize,
    /// RNG seed (partner selection).
    pub seed: u64,
}

impl Default for SvmConfig {
    fn default() -> Self {
        SvmConfig {
            kernel: Kernel::Linear,
            c: 1.0,
            tol: 1e-3,
            max_passes: 5,
            max_iters: 200,
            seed: 42,
        }
    }
}

/// A trained SVM: support vectors with their coefficients.
#[derive(Debug, Clone)]
pub struct Svm {
    kernel: Kernel,
    support: Vec<SparseVector>,
    /// `α_i · y_i` per support vector.
    coef: Vec<f32>,
    bias: f32,
}

/// Largest training set (n² f32s) whose kernel matrix is cached; the
/// training sets in the experiments are ≤ a few thousand rows.
const KERNEL_CACHE_LIMIT: usize = 16_000_000;

/// The full kernel matrix, or `None` when n² exceeds `limit`. Each pair
/// is evaluated once and stored at both `(i, j)` and `(j, i)`, so a row
/// read is bit-for-bit the column read.
fn kernel_matrix(examples: &[SparseVector], kernel: Kernel, limit: usize) -> Option<Vec<f32>> {
    let n = examples.len();
    if n * n > limit {
        return None;
    }
    let mut k = vec![0.0f32; n * n];
    for i in 0..n {
        for j in i..n {
            let v = kernel.eval(&examples[i], &examples[j]);
            k[i * n + j] = v;
            k[j * n + i] = v;
        }
    }
    Some(k)
}

/// How many margins SMO computes per pass over the nonzero α list.
const MARGIN_BATCH: usize = 4;

/// SMO's working state for the margin `f(i) = b + Σ_j α_j·y_j·K(j, i)`:
/// the kernel (cached or not) and the nonzero α terms of that sum.
struct Margins<'a> {
    examples: &'a [SparseVector],
    kernel: Kernel,
    cache: Option<Vec<f32>>,
    /// `(j, α_j·y_j)` for every `j` whose `α_j != 0.0`, ascending in `j`:
    /// the terms the full sum would not skip, in the order it adds them.
    terms: Vec<(usize, f32)>,
}

impl Margins<'_> {
    fn kval(&self, i: usize, j: usize) -> f32 {
        match &self.cache {
            Some(k) => k[i * self.examples.len() + j],
            None => self.kernel.eval(&self.examples[i], &self.examples[j]),
        }
    }

    /// Record a new `α_j` (with label `y_j`), keeping `terms` ascending.
    fn set_alpha(&mut self, j: usize, alpha: f32, y: f32) {
        let at = self.terms.binary_search_by_key(&j, |&(t, _)| t);
        match (at, alpha != 0.0) {
            (Ok(k), true) => self.terms[k].1 = alpha * y,
            (Ok(k), false) => {
                self.terms.remove(k);
            }
            (Err(k), true) => self.terms.insert(k, (j, alpha * y)),
            (Err(_), false) => {}
        }
    }

    /// `f(first + r)` into `out[r]`: one independent chain per margin,
    /// each starting at `b` and adding the same terms in the same order
    /// as a lone `f`, so batching changes no bit.
    fn fill(&self, b: f32, first: usize, out: &mut [f32]) {
        out.fill(b);
        match &self.cache {
            Some(k) => {
                let n = self.examples.len();
                let mut rows: [&[f32]; MARGIN_BATCH] = [&[]; MARGIN_BATCH];
                for (row, i) in rows.iter_mut().zip(first..first + out.len()) {
                    *row = &k[i * n..(i + 1) * n];
                }
                for &(j, c) in &self.terms {
                    for (acc, row) in out.iter_mut().zip(&rows) {
                        *acc += c * row[j];
                    }
                }
            }
            None => {
                let xs = &self.examples[first..first + out.len()];
                for &(j, c) in &self.terms {
                    for (acc, x) in out.iter_mut().zip(xs) {
                        *acc += c * self.kernel.eval(&self.examples[j], x);
                    }
                }
            }
        }
    }

    fn f(&self, b: f32, i: usize) -> f32 {
        let mut out = [0.0f32];
        self.fill(b, i, &mut out);
        out[0]
    }
}

impl Svm {
    /// Train on sparse examples with ±1 labels (`true` ⇒ +1).
    ///
    /// Panics if `examples` is empty or lengths mismatch — training-set
    /// construction bugs, not data errors.
    pub fn train(examples: &[SparseVector], labels: &[bool], config: &SvmConfig) -> Svm {
        Self::train_within(examples, labels, config, KERNEL_CACHE_LIMIT)
    }

    /// [`Svm::train`] caching the kernel matrix only when n² ≤ `cache_limit`.
    fn train_within(
        examples: &[SparseVector],
        labels: &[bool],
        config: &SvmConfig,
        cache_limit: usize,
    ) -> Svm {
        assert!(!examples.is_empty(), "empty training set");
        assert_eq!(examples.len(), labels.len());
        let n = examples.len();
        let y: Vec<f32> = labels.iter().map(|&l| if l { 1.0 } else { -1.0 }).collect();
        let mut alpha = vec![0.0f32; n];
        let mut b = 0.0f32;
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut m = Margins {
            examples,
            kernel: config.kernel,
            cache: kernel_matrix(examples, config.kernel, cache_limit),
            terms: Vec::new(),
        };
        // `f(i)` for `i` in `batch_at..batch_at + batch_len`, valid until
        // α or `b` next changes.
        let mut batch = [0.0f32; MARGIN_BATCH];
        let (mut batch_at, mut batch_len) = (0, 0);

        let mut passes = 0;
        let mut iters = 0;
        while passes < config.max_passes && iters < config.max_iters {
            let mut changed = 0;
            for i in 0..n {
                if !(batch_at..batch_at + batch_len).contains(&i) {
                    batch_at = i;
                    batch_len = MARGIN_BATCH.min(n - i);
                    m.fill(b, i, &mut batch[..batch_len]);
                }
                let ei = batch[i - batch_at] - y[i];
                let violates = (y[i] * ei < -config.tol && alpha[i] < config.c)
                    || (y[i] * ei > config.tol && alpha[i] > 0.0);
                if !violates {
                    continue;
                }
                // Random partner j != i.
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let ej = m.f(b, j) - y[j];
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if (y[i] - y[j]).abs() < f32::EPSILON {
                    ((ai_old + aj_old - config.c).max(0.0), (ai_old + aj_old).min(config.c))
                } else {
                    ((aj_old - ai_old).max(0.0), (config.c + aj_old - ai_old).min(config.c))
                };
                // Guard against degenerate or inverted boxes (hi can land
                // an epsilon below lo from float cancellation).
                if hi <= lo + 1e-8 {
                    continue;
                }
                let eta = 2.0 * m.kval(i, j) - m.kval(i, i) - m.kval(j, j);
                if eta >= 0.0 {
                    continue;
                }
                let mut aj = aj_old - y[j] * (ei - ej) / eta;
                aj = aj.clamp(lo, hi);
                if (aj - aj_old).abs() < 1e-5 {
                    continue;
                }
                let ai = ai_old + y[i] * y[j] * (aj_old - aj);
                alpha[i] = ai;
                alpha[j] = aj;
                m.set_alpha(i, ai, y[i]);
                m.set_alpha(j, aj, y[j]);
                batch_len = 0;
                // Bias update (Platt's rules).
                let b1 = b - ei
                    - y[i] * (ai - ai_old) * m.kval(i, i)
                    - y[j] * (aj - aj_old) * m.kval(i, j);
                let b2 = b - ej
                    - y[i] * (ai - ai_old) * m.kval(i, j)
                    - y[j] * (aj - aj_old) * m.kval(j, j);
                b = if ai > 0.0 && ai < config.c {
                    b1
                } else if aj > 0.0 && aj < config.c {
                    b2
                } else {
                    (b1 + b2) / 2.0
                };
                changed += 1;
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
            iters += 1;
        }
        Self::from_alphas(config.kernel, examples, &y, &alpha, b)
    }

    /// The model SMO's final α and `b` describe: every row with
    /// α > 1e-7 is a support vector with coefficient `α·y`.
    fn from_alphas(
        kernel: Kernel,
        examples: &[SparseVector],
        y: &[f32],
        alpha: &[f32],
        b: f32,
    ) -> Svm {
        let mut support = Vec::new();
        let mut coef = Vec::new();
        for (i, &a) in alpha.iter().enumerate() {
            if a > 1e-7 {
                support.push(examples[i].clone());
                coef.push(a * y[i]);
            }
        }
        Svm {
            kernel,
            support,
            coef,
            bias: b,
        }
    }

    /// Decision value (distance-ish from the separating surface).
    pub fn decision(&self, x: &SparseVector) -> f32 {
        let mut acc = self.bias;
        for (sv, &c) in self.support.iter().zip(&self.coef) {
            acc += c * self.kernel.eval(sv, x);
        }
        acc
    }

    /// Predicted label.
    pub fn predict(&self, x: &SparseVector) -> bool {
        self.decision(x) >= 0.0
    }

    /// Number of support vectors retained.
    pub fn n_support(&self) -> usize {
        self.support.len()
    }

    /// Serialize to a text format (kernel header, bias, then one
    /// `coef id:val id:val…` line per support vector) — the released-model
    /// payload for the №11/13 registry.
    pub fn save_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        match self.kernel {
            Kernel::Linear => {
                let _ = writeln!(out, "kernel linear");
            }
            Kernel::Rbf { gamma } => {
                let _ = writeln!(out, "kernel rbf {gamma}");
            }
            Kernel::Sigmoid { alpha, c } => {
                let _ = writeln!(out, "kernel sigmoid {alpha} {c}");
            }
        }
        let _ = writeln!(out, "bias {}", self.bias);
        let _ = writeln!(out, "support {}", self.support.len());
        for (sv, coef) in self.support.iter().zip(&self.coef) {
            let _ = write!(out, "{coef}");
            for (id, val) in sv {
                let _ = write!(out, " {id}:{val}");
            }
            out.push('\n');
        }
        out
    }

    /// Parse the format produced by [`Svm::save_text`].
    pub fn load_text(text: &str) -> Option<Svm> {
        let mut lines = text.lines();
        let kernel_line = lines.next()?;
        let mut parts = kernel_line.split_whitespace();
        if parts.next()? != "kernel" {
            return None;
        }
        let kernel = match parts.next()? {
            "linear" => Kernel::Linear,
            "rbf" => Kernel::Rbf {
                gamma: parts.next()?.parse().ok()?,
            },
            "sigmoid" => Kernel::Sigmoid {
                alpha: parts.next()?.parse().ok()?,
                c: parts.next()?.parse().ok()?,
            },
            _ => return None,
        };
        let bias_line = lines.next()?;
        let bias: f32 = bias_line.strip_prefix("bias ")?.trim().parse().ok()?;
        let n: usize = lines.next()?.strip_prefix("support ")?.trim().parse().ok()?;
        let mut support = Vec::with_capacity(n);
        let mut coef = Vec::with_capacity(n);
        for line in lines.take(n) {
            let mut parts = line.split_whitespace();
            coef.push(parts.next()?.parse().ok()?);
            let mut sv: SparseVector = Vec::new();
            for pair in parts {
                let (id, val) = pair.split_once(':')?;
                sv.push((id.parse().ok()?, val.parse().ok()?));
            }
            support.push(sv);
        }
        if support.len() != n {
            return None;
        }
        Some(Svm {
            kernel,
            support,
            coef,
            bias,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covidkg_rand::prop;

    /// The SMO loop before the nonzero-α list, row reads and batched
    /// margins: every `f(i)` walks all n α values down a kernel column.
    /// [`Svm::train_within`] must match it bit for bit.
    fn train_reference(
        examples: &[SparseVector],
        labels: &[bool],
        config: &SvmConfig,
        cache_limit: usize,
    ) -> Svm {
        let n = examples.len();
        let y: Vec<f32> = labels.iter().map(|&l| if l { 1.0 } else { -1.0 }).collect();
        let mut alpha = vec![0.0f32; n];
        let mut b = 0.0f32;
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let cache = kernel_matrix(examples, config.kernel, cache_limit);
        let kval = |i: usize, j: usize| -> f32 {
            match &cache {
                Some(k) => k[i * n + j],
                None => config.kernel.eval(&examples[i], &examples[j]),
            }
        };
        let f = |alpha: &[f32], b: f32, i: usize| -> f32 {
            let mut acc = b;
            for (j, &a) in alpha.iter().enumerate() {
                if a != 0.0 {
                    acc += a * y[j] * kval(j, i);
                }
            }
            acc
        };
        let mut passes = 0;
        let mut iters = 0;
        while passes < config.max_passes && iters < config.max_iters {
            let mut changed = 0;
            for i in 0..n {
                let ei = f(&alpha, b, i) - y[i];
                let violates = (y[i] * ei < -config.tol && alpha[i] < config.c)
                    || (y[i] * ei > config.tol && alpha[i] > 0.0);
                if !violates {
                    continue;
                }
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let ej = f(&alpha, b, j) - y[j];
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if (y[i] - y[j]).abs() < f32::EPSILON {
                    ((ai_old + aj_old - config.c).max(0.0), (ai_old + aj_old).min(config.c))
                } else {
                    ((aj_old - ai_old).max(0.0), (config.c + aj_old - ai_old).min(config.c))
                };
                if hi <= lo + 1e-8 {
                    continue;
                }
                let eta = 2.0 * kval(i, j) - kval(i, i) - kval(j, j);
                if eta >= 0.0 {
                    continue;
                }
                let mut aj = aj_old - y[j] * (ei - ej) / eta;
                aj = aj.clamp(lo, hi);
                if (aj - aj_old).abs() < 1e-5 {
                    continue;
                }
                let ai = ai_old + y[i] * y[j] * (aj_old - aj);
                alpha[i] = ai;
                alpha[j] = aj;
                let b1 = b - ei
                    - y[i] * (ai - ai_old) * kval(i, i)
                    - y[j] * (aj - aj_old) * kval(i, j);
                let b2 = b - ej
                    - y[i] * (ai - ai_old) * kval(i, j)
                    - y[j] * (aj - aj_old) * kval(j, j);
                b = if ai > 0.0 && ai < config.c {
                    b1
                } else if aj > 0.0 && aj < config.c {
                    b2
                } else {
                    (b1 + b2) / 2.0
                };
                changed += 1;
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
            iters += 1;
        }
        Svm::from_alphas(config.kernel, examples, &y, &alpha, b)
    }

    /// One generated training problem for the SMO oracle.
    #[derive(Debug, Clone)]
    struct Case {
        rows: Vec<(SparseVector, bool)>,
        kernel: Kernel,
        c: f32,
        max_passes: usize,
        max_iters: usize,
        seed: u64,
        cached: bool,
    }

    fn gen_case(rng: &mut SmallRng) -> Case {
        let n = if rng.gen_bool(0.3) {
            rng.gen_range(2..=12)
        } else {
            rng.gen_range(2..=300)
        };
        let dims = rng.gen_range(1..=24u32);
        // One-class sets, sets of near-duplicates and mixed labels.
        let labelling = rng.gen_range(0..4);
        let mut rows: Vec<(SparseVector, bool)> = Vec::with_capacity(n);
        for i in 0..n {
            let label = match labelling {
                0 => true,
                1 => false,
                _ => rng.gen_bool(0.5),
            };
            let x: SparseVector = if i > 0 && rng.gen_bool(0.1) {
                rows[rng.gen_range(0..i)].0.clone()
            } else if rng.gen_bool(0.05) {
                Vec::new()
            } else {
                let shift = if label { 0.5 } else { -0.5 };
                let mut x = SparseVector::new();
                for f in 0..dims {
                    if rng.gen_bool(0.3) {
                        x.push((f, rng.gen_range(-1.0f32..1.0) + shift));
                    }
                }
                x
            };
            rows.push((x, label));
        }
        let kernel = match rng.gen_range(0..3) {
            0 => Kernel::Linear,
            1 => Kernel::Rbf {
                gamma: rng.gen_range(0.05f32..2.0),
            },
            _ => Kernel::Sigmoid {
                alpha: rng.gen_range(0.05f32..1.0),
                c: rng.gen_range(-1.0f32..1.0),
            },
        };
        // Uncached training re-evaluates the kernel per term: keep its
        // sweeps few so a debug build stays quick.
        let cached = rng.gen_bool(0.6);
        let max_iters = if cached {
            rng.gen_range(1..=200)
        } else {
            rng.gen_range(1..=12)
        };
        Case {
            rows,
            kernel,
            c: *prop::pick(rng, &[0.1f32, 1.0, 5.0, 100.0]),
            max_passes: rng.gen_range(1..=5),
            max_iters,
            seed: rng.gen(),
            cached,
        }
    }

    fn check_case(case: &Case) -> Result<(), String> {
        if case.rows.len() < 2 {
            return Ok(());
        }
        let (xs, ys): (Vec<SparseVector>, Vec<bool>) = case.rows.iter().cloned().unzip();
        let config = SvmConfig {
            kernel: case.kernel,
            c: case.c,
            max_passes: case.max_passes,
            max_iters: case.max_iters,
            seed: case.seed,
            ..SvmConfig::default()
        };
        let limit = if case.cached { KERNEL_CACHE_LIMIT } else { 0 };
        let fast = Svm::train_within(&xs, &ys, &config, limit);
        let slow = train_reference(&xs, &ys, &config, limit);
        if fast.save_text() != slow.save_text() {
            return Err(format!(
                "save_text differs:\n{}\nvs reference\n{}",
                fast.save_text(),
                slow.save_text()
            ));
        }
        for x in &xs {
            let (a, b) = (fast.decision(x), slow.decision(x));
            if a.to_bits() != b.to_bits() {
                return Err(format!("decision {a} vs reference {b} on {x:?}"));
            }
        }
        Ok(())
    }

    #[test]
    fn smo_matches_the_full_scan_reference_bit_for_bit() {
        prop::run_shrink(
            96,
            gen_case,
            |case| {
                prop::shrink_vec(&case.rows, |_| Vec::new())
                    .into_iter()
                    .map(|rows| Case { rows, ..case.clone() })
                    .collect()
            },
            check_case,
        );
    }

    fn dense(v: &[f32]) -> SparseVector {
        v.iter()
            .enumerate()
            .filter(|(_, &x)| x != 0.0)
            .map(|(i, &x)| (i as u32, x))
            .collect()
    }

    #[test]
    fn sparse_ops() {
        let a = dense(&[1.0, 0.0, 2.0]);
        let b = dense(&[0.0, 3.0, 4.0]);
        assert_eq!(sparse_dot(&a, &b), 8.0);
        assert_eq!(sparse_sq_dist(&a, &b), 1.0 + 9.0 + 4.0);
        assert_eq!(sparse_sq_dist(&a, &a), 0.0);
    }

    #[test]
    fn kernels_have_expected_shape() {
        let a = dense(&[1.0, 0.0]);
        let b = dense(&[0.0, 1.0]);
        assert_eq!(Kernel::Linear.eval(&a, &b), 0.0);
        let rbf = Kernel::Rbf { gamma: 1.0 };
        assert!((rbf.eval(&a, &a) - 1.0).abs() < 1e-6);
        assert!(rbf.eval(&a, &b) < 1.0);
        let sig = Kernel::Sigmoid { alpha: 1.0, c: 0.0 };
        assert!((sig.eval(&a, &a) - 1.0f32.tanh()).abs() < 1e-6);
    }

    fn linearly_separable(n: usize) -> (Vec<SparseVector>, Vec<bool>) {
        // Positive class around (2, 2), negative around (-2, -2).
        let mut rng = SmallRng::seed_from_u64(9);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let label = i % 2 == 0;
            let center = if label { 2.0 } else { -2.0 };
            let x = center + rng.gen_range(-0.5f32..0.5);
            let y = center + rng.gen_range(-0.5f32..0.5);
            xs.push(dense(&[x, y]));
            ys.push(label);
        }
        (xs, ys)
    }

    #[test]
    fn linear_kernel_separates_blobs() {
        let (xs, ys) = linearly_separable(60);
        let svm = Svm::train(&xs, &ys, &SvmConfig::default());
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| svm.predict(x) == y)
            .count();
        assert_eq!(correct, xs.len(), "separable data must fit exactly");
        assert!(svm.n_support() < xs.len(), "most alphas should be zero");
    }

    #[test]
    fn rbf_kernel_fits_xor() {
        // XOR is not linearly separable; RBF must handle it.
        let xs = vec![
            dense(&[0.0, 0.0]),
            dense(&[1.0, 1.0]),
            dense(&[1.0, 0.0]),
            dense(&[0.0, 1.0]),
        ];
        let ys = vec![false, false, true, true];
        let cfg = SvmConfig {
            kernel: Kernel::Rbf { gamma: 2.0 },
            c: 10.0,
            max_iters: 2000,
            max_passes: 20,
            ..SvmConfig::default()
        };
        let svm = Svm::train(&xs, &ys, &cfg);
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(svm.predict(x), y);
        }
        let lin = Svm::train(&xs, &ys, &SvmConfig::default());
        let lin_correct = xs.iter().zip(&ys).filter(|(x, &y)| lin.predict(x) == y).count();
        assert!(lin_correct < 4, "linear kernel must fail on XOR");
    }

    #[test]
    fn sigmoid_kernel_trains() {
        let (xs, ys) = linearly_separable(40);
        let cfg = SvmConfig {
            kernel: Kernel::Sigmoid { alpha: 0.25, c: 0.0 },
            c: 5.0,
            max_iters: 1000,
            max_passes: 10,
            ..SvmConfig::default()
        };
        let svm = Svm::train(&xs, &ys, &cfg);
        let correct = xs.iter().zip(&ys).filter(|(x, &y)| svm.predict(x) == y).count();
        assert!(
            correct as f64 / xs.len() as f64 > 0.9,
            "sigmoid kernel accuracy {correct}/{}",
            xs.len()
        );
    }

    #[test]
    fn decision_values_order_by_margin() {
        let (xs, ys) = linearly_separable(40);
        let svm = Svm::train(&xs, &ys, &SvmConfig::default());
        let far_pos = dense(&[5.0, 5.0]);
        let near_pos = dense(&[0.6, 0.6]);
        assert!(svm.decision(&far_pos) > svm.decision(&near_pos));
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let (xs, ys) = linearly_separable(30);
        let a = Svm::train(&xs, &ys, &SvmConfig::default());
        let b = Svm::train(&xs, &ys, &SvmConfig::default());
        assert_eq!(a.bias, b.bias);
        assert_eq!(a.n_support(), b.n_support());
    }

    #[test]
    fn generalizes_to_unseen_points() {
        let (xs, ys) = linearly_separable(80);
        let svm = Svm::train(&xs, &ys, &SvmConfig::default());
        assert!(svm.predict(&dense(&[1.5, 2.5])));
        assert!(!svm.predict(&dense(&[-1.5, -2.5])));
    }

    #[test]
    fn save_load_round_trip_preserves_decisions() {
        let (xs, ys) = linearly_separable(40);
        for kernel in [
            Kernel::Linear,
            Kernel::Rbf { gamma: 0.5 },
            Kernel::Sigmoid { alpha: 0.25, c: 0.1 },
        ] {
            let cfg = SvmConfig {
                kernel,
                ..SvmConfig::default()
            };
            let svm = Svm::train(&xs, &ys, &cfg);
            let back = Svm::load_text(&svm.save_text()).expect("round trip");
            assert_eq!(back.n_support(), svm.n_support());
            for x in &xs {
                assert!(
                    (svm.decision(x) - back.decision(x)).abs() < 1e-4,
                    "{kernel:?} decision drift"
                );
                assert_eq!(svm.predict(x), back.predict(x));
            }
        }
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(Svm::load_text("").is_none());
        assert!(Svm::load_text("kernel bogus\nbias 0\nsupport 0\n").is_none());
        assert!(Svm::load_text("kernel linear\nbias 0\nsupport 2\n1 0:1\n").is_none());
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_panics() {
        let _ = Svm::train(&[], &[], &SvmConfig::default());
    }
}
