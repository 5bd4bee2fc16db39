//! The [`Problem`] trait and evaluation result type.

/// Objective counts up to this arity are stored inline in [`ObjVec`],
/// without a heap allocation.
///
/// Four covers every problem in this workspace (the EasyACIM design
/// problems minimise exactly four objectives: −SNR, −throughput, energy,
/// area) with room for the common 2–3-objective benchmark problems.
pub const INLINE_OBJECTIVES: usize = 4;

/// A small-vector of objective values: up to [`INLINE_OBJECTIVES`] values
/// inline, heap-spilled beyond that.
///
/// Objective vectors are created once per evaluation — millions of times
/// per exploration — and are almost always tiny, so the historical
/// `Vec<f64>` representation made every evaluation an allocation.
/// `ObjVec` keeps the common case on the stack while staying
/// drop-in-compatible: it dereferences to `&[f64]` (indexing, `len`,
/// iteration, and `&ObjVec → &[f64]` coercion all work), converts from
/// and into `Vec<f64>`, and compares against plain vectors and arrays.
#[derive(Clone)]
pub struct ObjVec(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        data: [f64; INLINE_OBJECTIVES],
    },
    Heap(Vec<f64>),
}

impl ObjVec {
    /// The objective values as a slice.
    pub fn as_slice(&self) -> &[f64] {
        match &self.0 {
            Repr::Inline { len, data } => &data[..usize::from(*len)],
            Repr::Heap(values) => values,
        }
    }

    /// The objective values as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        match &mut self.0 {
            Repr::Inline { len, data } => &mut data[..usize::from(*len)],
            Repr::Heap(values) => values,
        }
    }
}

impl std::ops::Deref for ObjVec {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for ObjVec {
    fn deref_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
}

impl From<Vec<f64>> for ObjVec {
    fn from(values: Vec<f64>) -> Self {
        if values.len() <= INLINE_OBJECTIVES {
            let mut data = [0.0; INLINE_OBJECTIVES];
            data[..values.len()].copy_from_slice(&values);
            Self(Repr::Inline {
                len: values.len() as u8,
                data,
            })
        } else {
            Self(Repr::Heap(values))
        }
    }
}

impl From<&[f64]> for ObjVec {
    fn from(values: &[f64]) -> Self {
        if values.len() <= INLINE_OBJECTIVES {
            let mut data = [0.0; INLINE_OBJECTIVES];
            data[..values.len()].copy_from_slice(values);
            Self(Repr::Inline {
                len: values.len() as u8,
                data,
            })
        } else {
            Self(Repr::Heap(values.to_vec()))
        }
    }
}

impl<const N: usize> From<[f64; N]> for ObjVec {
    fn from(values: [f64; N]) -> Self {
        Self::from(values.as_slice())
    }
}

impl From<ObjVec> for Vec<f64> {
    fn from(objectives: ObjVec) -> Self {
        match objectives.0 {
            Repr::Inline { len, data } => data[..usize::from(len)].to_vec(),
            Repr::Heap(values) => values,
        }
    }
}

impl FromIterator<f64> for ObjVec {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self::from(iter.into_iter().collect::<Vec<f64>>())
    }
}

impl PartialEq for ObjVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Vec<f64>> for ObjVec {
    fn eq(&self, other: &Vec<f64>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<ObjVec> for Vec<f64> {
    fn eq(&self, other: &ObjVec) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[f64]> for ObjVec {
    fn eq(&self, other: &[f64]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<[f64; N]> for ObjVec {
    fn eq(&self, other: &[f64; N]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for ObjVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Render as the slice regardless of representation: the repr is a
        // storage detail, not part of the value.
        std::fmt::Debug::fmt(self.as_slice(), f)
    }
}

/// The result of evaluating a genome: objective values (all minimised) and an
/// aggregate constraint violation.
///
/// A violation of `0.0` means the solution is feasible; larger values mean
/// "more infeasible".  NSGA-II uses Deb's constrained-domination rule: any
/// feasible solution dominates any infeasible one, and among infeasible
/// solutions the one with the smaller violation wins.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Objective values, all to be minimised.  Stored inline (no heap
    /// allocation) for up to [`INLINE_OBJECTIVES`] objectives.
    pub objectives: ObjVec,
    /// Aggregate constraint violation (`0.0` = feasible).
    pub constraint_violation: f64,
}

impl Evaluation {
    /// Creates an evaluation with an explicit constraint violation.
    ///
    /// Accepts anything convertible into an [`ObjVec`]: a `Vec<f64>`, a
    /// fixed-size array like `[f64; 4]` (the allocation-free path), or a
    /// slice.
    ///
    /// # Panics
    ///
    /// Panics if `constraint_violation` is negative or NaN.
    pub fn new(objectives: impl Into<ObjVec>, constraint_violation: f64) -> Self {
        assert!(
            constraint_violation >= 0.0,
            "constraint violation must be non-negative, got {constraint_violation}"
        );
        Self {
            objectives: objectives.into(),
            constraint_violation,
        }
    }

    /// Creates a feasible (unconstrained) evaluation.
    pub fn unconstrained(objectives: impl Into<ObjVec>) -> Self {
        Self::new(objectives, 0.0)
    }

    /// Returns `true` when the solution satisfies all constraints.
    pub fn is_feasible(&self) -> bool {
        self.constraint_violation == 0.0
    }
}

/// A multi-objective optimisation problem over a real-coded genome.
///
/// Genomes are vectors in `[0, 1]^n`; the problem is responsible for decoding
/// them into its native parameter space inside [`Problem::evaluate`].  This
/// keeps the variation operators (SBX, polynomial mutation) problem-agnostic,
/// which is how the EasyACIM design-space explorer drives mixed
/// integer/categorical parameters such as (H, W, L, B_ADC).
pub trait Problem {
    /// Number of genes.
    fn num_variables(&self) -> usize;

    /// Number of objectives (all minimised).
    fn num_objectives(&self) -> usize;

    /// Evaluates a genome.  `genes.len() == self.num_variables()`.
    fn evaluate(&self, genes: &[f64]) -> Evaluation;

    /// Evaluates a whole batch of genomes, returning one [`Evaluation`] per
    /// genome **in input order**.
    ///
    /// The optimisers ([`crate::Nsga2`], [`crate::random_search()`]) funnel
    /// every generation through this method, so a problem that overrides it
    /// with a parallel implementation speeds up the whole search without the
    /// optimiser knowing.  Implementations must be order-preserving and
    /// bit-identical to mapping [`Problem::evaluate`] over the slice —
    /// seeded runs stay reproducible regardless of how the batch is
    /// scheduled.
    ///
    /// The default is the serial map, so existing problems keep working
    /// unchanged.
    fn evaluate_batch(&self, genomes: &[Vec<f64>]) -> Vec<Evaluation> {
        genomes.iter().map(|genes| self.evaluate(genes)).collect()
    }

    /// Optional human-readable problem name (used in benchmark reports).
    fn name(&self) -> &str {
        "unnamed problem"
    }
}

// The blanket impls must forward `evaluate_batch` explicitly: falling back
// to the trait default would silently bypass an overriding batch path, such
// as `CachedProblem`'s cohort dedupe (the optimisers usually hold `&P`, not
// `P`).
impl<P: Problem + ?Sized> Problem for &P {
    fn num_variables(&self) -> usize {
        (**self).num_variables()
    }
    fn num_objectives(&self) -> usize {
        (**self).num_objectives()
    }
    fn evaluate(&self, genes: &[f64]) -> Evaluation {
        (**self).evaluate(genes)
    }
    fn evaluate_batch(&self, genomes: &[Vec<f64>]) -> Vec<Evaluation> {
        (**self).evaluate_batch(genomes)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<P: Problem + ?Sized> Problem for Box<P> {
    fn num_variables(&self) -> usize {
        (**self).num_variables()
    }
    fn num_objectives(&self) -> usize {
        (**self).num_objectives()
    }
    fn evaluate(&self, genes: &[f64]) -> Evaluation {
        (**self).evaluate(genes)
    }
    fn evaluate_batch(&self, genomes: &[Vec<f64>]) -> Vec<Evaluation> {
        (**self).evaluate_batch(genomes)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<P: Problem + ?Sized> Problem for std::sync::Arc<P> {
    fn num_variables(&self) -> usize {
        (**self).num_variables()
    }
    fn num_objectives(&self) -> usize {
        (**self).num_objectives()
    }
    fn evaluate(&self, genes: &[f64]) -> Evaluation {
        (**self).evaluate(genes)
    }
    fn evaluate_batch(&self, genomes: &[Vec<f64>]) -> Vec<Evaluation> {
        (**self).evaluate_batch(genomes)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sphere;

    impl Problem for Sphere {
        fn num_variables(&self) -> usize {
            2
        }
        fn num_objectives(&self) -> usize {
            1
        }
        fn evaluate(&self, genes: &[f64]) -> Evaluation {
            Evaluation::unconstrained(vec![genes.iter().map(|g| g * g).sum()])
        }
        fn name(&self) -> &str {
            "sphere"
        }
    }

    #[test]
    fn unconstrained_evaluations_are_feasible() {
        let eval = Evaluation::unconstrained(vec![1.0, 2.0]);
        assert!(eval.is_feasible());
        assert_eq!(eval.objectives, vec![1.0, 2.0]);
    }

    #[test]
    fn constrained_evaluation_tracks_violation() {
        let eval = Evaluation::new(vec![1.0], 3.5);
        assert!(!eval.is_feasible());
        assert_eq!(eval.constraint_violation, 3.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_violation_panics() {
        let _ = Evaluation::new(vec![1.0], -1.0);
    }

    #[test]
    fn problem_impl_for_references() {
        fn takes_problem<P: Problem>(p: P) -> usize {
            p.num_variables()
        }
        let sphere = Sphere;
        assert_eq!(takes_problem(&sphere), 2);
        assert_eq!(sphere.name(), "sphere");
        assert_eq!(
            sphere.evaluate(&[0.5, 0.5]).objectives[0],
            0.5f64 * 0.5 + 0.5 * 0.5
        );
    }

    #[test]
    fn default_batch_is_the_serial_map_in_order() {
        let genomes = vec![vec![0.0, 0.0], vec![0.5, 0.5], vec![1.0, 0.0]];
        let batch = Sphere.evaluate_batch(&genomes);
        assert_eq!(batch.len(), 3);
        for (genes, eval) in genomes.iter().zip(&batch) {
            assert_eq!(eval, &Sphere.evaluate(genes));
        }
    }

    /// A problem whose batch evaluation is observably different from the
    /// serial map (it tags objectives with the batch size) — used to prove
    /// the blanket impls forward `evaluate_batch` instead of silently
    /// falling back to the serial default.
    struct BatchTagged;

    impl Problem for BatchTagged {
        fn num_variables(&self) -> usize {
            1
        }
        fn num_objectives(&self) -> usize {
            1
        }
        fn evaluate(&self, _genes: &[f64]) -> Evaluation {
            Evaluation::unconstrained(vec![1.0])
        }
        fn evaluate_batch(&self, genomes: &[Vec<f64>]) -> Vec<Evaluation> {
            genomes
                .iter()
                .map(|_| Evaluation::unconstrained(vec![genomes.len() as f64]))
                .collect()
        }
    }

    #[test]
    fn blanket_impls_forward_evaluate_batch() {
        let genomes = vec![vec![0.1], vec![0.2], vec![0.3]];
        // UFCS pins the blanket `&P` impl (plain method syntax would
        // auto-deref to the inherent impl and prove nothing).
        let by_ref = <&BatchTagged as Problem>::evaluate_batch(&&BatchTagged, &genomes);
        let by_double_ref = <&&BatchTagged as Problem>::evaluate_batch(&&&BatchTagged, &genomes);
        let boxed: Box<dyn Problem> = Box::new(BatchTagged);
        let by_box = boxed.evaluate_batch(&genomes);
        let by_arc = std::sync::Arc::new(BatchTagged).evaluate_batch(&genomes);
        for batch in [by_ref, by_double_ref, by_box, by_arc] {
            assert!(
                batch.iter().all(|e| e.objectives == vec![3.0]),
                "wrapper fell back to the serial default"
            );
        }
    }
}
