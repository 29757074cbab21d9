//! The catalogue of similarity methods evaluated by the paper.

use std::fmt;

/// One of the nine similarity methods (Section 3.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Method {
    /// Per-measurement relative difference against a threshold.
    RelDiff,
    /// Per-measurement absolute difference against a threshold
    /// (interpreted in microseconds, matching the paper's 10^1..10^6 grid).
    AbsDiff,
    /// Minkowski distance of order 1 over the measurement vectors.
    Manhattan,
    /// Minkowski distance of order 2 over the measurement vectors.
    Euclidean,
    /// Minkowski distance of order ∞ (largest single difference).
    Chebyshev,
    /// Euclidean distance between average-wavelet-transformed time-stamp
    /// vectors.
    AvgWave,
    /// Euclidean distance between Haar-wavelet-transformed time-stamp
    /// vectors.
    HaarWave,
    /// Keep only the first `k` instances of each segment pattern.
    IterK,
    /// Keep one instance per segment pattern holding running-average
    /// measurements.
    IterAvg,
}

impl Method {
    /// All methods, in the order the paper's figures list them.
    pub const ALL: [Method; 9] = [
        Method::RelDiff,
        Method::AbsDiff,
        Method::Manhattan,
        Method::Euclidean,
        Method::Chebyshev,
        Method::IterK,
        Method::IterAvg,
        Method::AvgWave,
        Method::HaarWave,
    ];

    /// The paper's name for this method.
    pub fn name(self) -> &'static str {
        match self {
            Method::RelDiff => "relDiff",
            Method::AbsDiff => "absDiff",
            Method::Manhattan => "Manhattan",
            Method::Euclidean => "Euclidean",
            Method::Chebyshev => "Chebyshev",
            Method::AvgWave => "avgWave",
            Method::HaarWave => "haarWave",
            Method::IterK => "iter_k",
            Method::IterAvg => "iter_avg",
        }
    }

    /// Looks a method up by its paper name (case-insensitive).
    pub fn by_name(name: &str) -> Option<Method> {
        Method::ALL
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(name))
    }

    /// True for the distance methods (everything except the two
    /// iteration-based methods).
    pub fn is_distance_method(self) -> bool {
        !matches!(self, Method::IterK | Method::IterAvg)
    }

    /// True if the method takes a threshold parameter (`iter_avg` is the
    /// only one that does not).
    pub fn has_threshold(self) -> bool {
        !matches!(self, Method::IterAvg)
    }

    /// The representative ("best") threshold the paper selects for the
    /// comparative study (Section 5.2): 0.8 for relDiff, 1000 for absDiff,
    /// 0.4 for Manhattan, 0.2 for Euclidean and Chebyshev, k = 10 for
    /// iter_k, and 0.2 for both wavelet transforms.
    pub fn default_threshold(self) -> f64 {
        match self {
            Method::RelDiff => 0.8,
            Method::AbsDiff => 1_000.0,
            Method::Manhattan => 0.4,
            Method::Euclidean | Method::Chebyshev => 0.2,
            Method::AvgWave | Method::HaarWave => 0.2,
            Method::IterK => 10.0,
            Method::IterAvg => 0.0,
        }
    }

    /// The threshold grid the paper's threshold study sweeps for this
    /// method (Section 5.1): `{0.1, 0.2, 0.4, 0.6, 0.8, 1.0}` for the
    /// relative-difference, Minkowski and wavelet methods; powers of ten
    /// from 10^1 to 10^6 for absDiff; `{1, 10, 50, 100, 500, 1000}` for
    /// iter_k; empty for iter_avg.
    pub fn threshold_grid(self) -> Vec<f64> {
        match self {
            Method::RelDiff
            | Method::Manhattan
            | Method::Euclidean
            | Method::Chebyshev
            | Method::AvgWave
            | Method::HaarWave => vec![0.1, 0.2, 0.4, 0.6, 0.8, 1.0],
            Method::AbsDiff => vec![1e1, 1e2, 1e3, 1e4, 1e5, 1e6],
            Method::IterK => vec![1.0, 10.0, 50.0, 100.0, 500.0, 1000.0],
            Method::IterAvg => Vec::new(),
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A method plus its threshold parameter.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MethodConfig {
    /// The similarity method.
    pub method: Method,
    /// The threshold: a relative factor for the distance methods, a value in
    /// microseconds for `absDiff`, the iteration count `k` for `iter_k`;
    /// ignored for `iter_avg`.
    pub threshold: f64,
}

impl MethodConfig {
    /// Creates a configuration with an explicit threshold.
    pub fn new(method: Method, threshold: f64) -> Self {
        MethodConfig { method, threshold }
    }

    /// Creates a configuration using the paper's representative threshold
    /// for the method.
    pub fn with_default_threshold(method: Method) -> Self {
        MethodConfig::new(method, method.default_threshold())
    }

    /// The `k` parameter for `iter_k` (threshold rounded to at least 1).
    pub fn iter_k(&self) -> usize {
        (self.threshold.round().max(1.0)) as usize
    }

    /// Short label such as `relDiff(0.8)` used in reports.
    pub fn label(&self) -> String {
        if self.method.has_threshold() {
            format!("{}({})", self.method.name(), self.threshold)
        } else {
            self.method.name().to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_round_trip() {
        let mut names: Vec<_> = Method::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Method::ALL.len());
        for m in Method::ALL {
            assert_eq!(Method::by_name(m.name()), Some(m));
            assert_eq!(Method::by_name(&m.name().to_uppercase()), Some(m));
        }
        assert_eq!(Method::by_name("unknown"), None);
    }

    #[test]
    fn default_thresholds_match_the_paper() {
        assert_eq!(Method::RelDiff.default_threshold(), 0.8);
        assert_eq!(Method::AbsDiff.default_threshold(), 1_000.0);
        assert_eq!(Method::Manhattan.default_threshold(), 0.4);
        assert_eq!(Method::Euclidean.default_threshold(), 0.2);
        assert_eq!(Method::Chebyshev.default_threshold(), 0.2);
        assert_eq!(Method::AvgWave.default_threshold(), 0.2);
        assert_eq!(Method::HaarWave.default_threshold(), 0.2);
        assert_eq!(Method::IterK.default_threshold(), 10.0);
    }

    #[test]
    fn threshold_grids_match_the_paper() {
        assert_eq!(Method::RelDiff.threshold_grid().len(), 6);
        assert_eq!(
            Method::AbsDiff.threshold_grid(),
            vec![1e1, 1e2, 1e3, 1e4, 1e5, 1e6]
        );
        assert_eq!(
            Method::IterK.threshold_grid(),
            vec![1.0, 10.0, 50.0, 100.0, 500.0, 1000.0]
        );
        assert!(Method::IterAvg.threshold_grid().is_empty());
    }

    #[test]
    fn classification_helpers() {
        assert!(Method::AvgWave.is_distance_method());
        assert!(!Method::IterK.is_distance_method());
        assert!(!Method::IterAvg.has_threshold());
        assert!(Method::AbsDiff.has_threshold());
    }

    #[test]
    fn config_helpers() {
        let cfg = MethodConfig::with_default_threshold(Method::IterK);
        assert_eq!(cfg.iter_k(), 10);
        assert_eq!(cfg.label(), "iter_k(10)");
        let avg = MethodConfig::with_default_threshold(Method::IterAvg);
        assert_eq!(avg.label(), "iter_avg");
    }

    #[test]
    fn display_uses_paper_name() {
        assert_eq!(format!("{}", Method::AvgWave), "avgWave");
    }
}
