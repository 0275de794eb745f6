//! Visitor-based parameter traversal.
//!
//! The trainer needs to walk every dense parameter of a model three ways:
//! apply an SGD step, export gradients into a flat buffer (to AllReduce
//! or push to a dense PS), and import averaged gradients back. A visitor
//! keeps the layers ignorant of the training topology while avoiding any
//! flattening copies in the common local-update path.

/// Visits `(param, grad)` slice pairs of a model in a fixed order.
pub trait ParamVisitor {
    /// Called once per parameter tensor with its gradient buffer.
    fn visit(&mut self, param: &mut [f32], grad: &mut [f32]);
}

/// Implemented by anything holding trainable dense parameters.
pub trait HasParams {
    /// Walks every `(param, grad)` pair in a deterministic order.
    fn visit_params(&mut self, visitor: &mut dyn ParamVisitor);

    /// Total number of dense scalar parameters.
    fn n_params(&mut self) -> usize {
        let mut counter = CountParams(0);
        self.visit_params(&mut counter);
        counter.0
    }

    /// Zeroes every gradient buffer.
    fn zero_grads(&mut self) {
        struct Zero;
        impl ParamVisitor for Zero {
            fn visit(&mut self, _param: &mut [f32], grad: &mut [f32]) {
                grad.iter_mut().for_each(|g| *g = 0.0);
            }
        }
        self.visit_params(&mut Zero);
    }
}

struct CountParams(usize);

impl ParamVisitor for CountParams {
    fn visit(&mut self, param: &mut [f32], _grad: &mut [f32]) {
        self.0 += param.len();
    }
}

/// A flat gradient buffer used for cross-worker reduction: `export`
/// copies a model's gradients out in visit order, `import` writes a
/// (reduced) buffer back into the model's gradient slots.
#[derive(Clone, Debug, Default)]
pub struct FlatGrads {
    buf: Vec<f32>,
}

impl FlatGrads {
    /// An empty buffer.
    pub fn new() -> Self {
        FlatGrads::default()
    }

    /// The flat gradient values, in visit order.
    pub fn as_slice(&self) -> &[f32] {
        &self.buf
    }

    /// The flat gradient values, mutably (e.g. to average in place).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.buf
    }

    /// Copies the model's gradients into this buffer (resizing it).
    pub fn export_from(&mut self, model: &mut dyn HasParams) {
        self.buf.clear();
        struct Export<'a>(&'a mut Vec<f32>);
        impl ParamVisitor for Export<'_> {
            fn visit(&mut self, _param: &mut [f32], grad: &mut [f32]) {
                self.0.extend_from_slice(grad);
            }
        }
        model.visit_params(&mut Export(&mut self.buf));
    }

    /// Writes this buffer back into the model's gradient slots.
    ///
    /// # Panics
    /// Panics if the buffer length does not match the model's parameter
    /// count.
    pub fn import_into(&self, model: &mut dyn HasParams) {
        struct Import<'a> {
            buf: &'a [f32],
            offset: usize,
        }
        impl ParamVisitor for Import<'_> {
            fn visit(&mut self, _param: &mut [f32], grad: &mut [f32]) {
                let end = self.offset + grad.len();
                grad.copy_from_slice(&self.buf[self.offset..end]);
                self.offset = end;
            }
        }
        assert_eq!(
            self.buf.len(),
            model.n_params(),
            "flat gradient length mismatch"
        );
        let mut importer = Import {
            buf: &self.buf,
            offset: 0,
        };
        model.visit_params(&mut importer);
    }

    /// Element-wise `self += other`.
    ///
    /// # Panics
    /// Panics on length mismatch (unless `self` is empty, in which case it
    /// copies `other` into the capacity it has).
    pub fn accumulate(&mut self, other: &FlatGrads) {
        if self.buf.is_empty() {
            self.buf.extend_from_slice(&other.buf);
            return;
        }
        assert_eq!(
            self.buf.len(),
            other.buf.len(),
            "flat gradient length mismatch"
        );
        add(&mut self.buf, &other.buf);
    }

    /// `self += ` the model's gradients, in visit order: exactly
    /// [`FlatGrads::accumulate`] of their export, without the buffer the
    /// export would fill.
    ///
    /// # Panics
    /// Panics if the model's parameter count differs from a non-empty
    /// buffer's length.
    pub fn accumulate_from(&mut self, model: &mut dyn HasParams) {
        if self.buf.is_empty() {
            self.export_from(model);
            return;
        }
        struct Accumulate<'a> {
            buf: &'a mut [f32],
            offset: usize,
        }
        impl ParamVisitor for Accumulate<'_> {
            fn visit(&mut self, _param: &mut [f32], grad: &mut [f32]) {
                let end = self.offset + grad.len();
                add(&mut self.buf[self.offset..end], grad);
                self.offset = end;
            }
        }
        assert_eq!(
            self.buf.len(),
            model.n_params(),
            "flat gradient length mismatch"
        );
        model.visit_params(&mut Accumulate {
            buf: &mut self.buf,
            offset: 0,
        });
    }

    /// Empties the buffer, keeping its capacity: a sum of the next
    /// round's gradients reuses it.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Scales every element (e.g. by `1/N` after summing N workers).
    pub fn scale(&mut self, factor: f32) {
        self.buf.iter_mut().for_each(|v| *v *= factor);
    }

    /// Number of scalars in the buffer.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Element-wise `sum += other`, one addition per element in index order.
fn add(sum: &mut [f32], other: &[f32]) {
    for (a, &b) in sum.iter_mut().zip(other) {
        *a += b;
    }
}

/// A flat *parameter* buffer: `export` copies a model's parameters out in
/// visit order, `import` overwrites the model's parameters from a buffer.
/// Used by the dense-PS baselines, whose workers pull full parameter
/// vectors from the server every iteration.
#[derive(Clone, Debug, Default)]
pub struct FlatParams {
    buf: Vec<f32>,
}

impl FlatParams {
    /// An empty buffer.
    pub fn new() -> Self {
        FlatParams::default()
    }

    /// Wraps an existing flat vector.
    pub fn from_vec(buf: Vec<f32>) -> Self {
        FlatParams { buf }
    }

    /// The flat parameter values, in visit order.
    pub fn as_slice(&self) -> &[f32] {
        &self.buf
    }

    /// Consumes the buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.buf
    }

    /// Copies the model's parameters into this buffer (resizing it).
    pub fn export_from(&mut self, model: &mut dyn HasParams) {
        self.buf.clear();
        struct Export<'a>(&'a mut Vec<f32>);
        impl ParamVisitor for Export<'_> {
            fn visit(&mut self, param: &mut [f32], _grad: &mut [f32]) {
                self.0.extend_from_slice(param);
            }
        }
        model.visit_params(&mut Export(&mut self.buf));
    }

    /// Overwrites the model's parameters from this buffer.
    ///
    /// # Panics
    /// Panics if the buffer length does not match the model's parameter
    /// count.
    pub fn import_into(&self, model: &mut dyn HasParams) {
        assert_eq!(
            self.buf.len(),
            model.n_params(),
            "flat parameter length mismatch"
        );
        struct Import<'a> {
            buf: &'a [f32],
            offset: usize,
        }
        impl ParamVisitor for Import<'_> {
            fn visit(&mut self, param: &mut [f32], _grad: &mut [f32]) {
                let end = self.offset + param.len();
                param.copy_from_slice(&self.buf[self.offset..end]);
                self.offset = end;
            }
        }
        let mut importer = Import {
            buf: &self.buf,
            offset: 0,
        };
        model.visit_params(&mut importer);
    }

    /// Number of scalars in the buffer.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TwoTensors {
        a: Vec<f32>,
        ga: Vec<f32>,
        b: Vec<f32>,
        gb: Vec<f32>,
    }

    impl TwoTensors {
        fn new() -> Self {
            TwoTensors {
                a: vec![1.0, 2.0],
                ga: vec![0.1, 0.2],
                b: vec![3.0, 4.0, 5.0],
                gb: vec![0.3, 0.4, 0.5],
            }
        }
    }

    impl HasParams for TwoTensors {
        fn visit_params(&mut self, v: &mut dyn ParamVisitor) {
            v.visit(&mut self.a, &mut self.ga);
            v.visit(&mut self.b, &mut self.gb);
        }
    }

    #[test]
    fn n_params_counts_all_tensors() {
        assert_eq!(TwoTensors::new().n_params(), 5);
    }

    #[test]
    fn zero_grads_clears_only_grads() {
        let mut m = TwoTensors::new();
        m.zero_grads();
        assert_eq!(m.ga, vec![0.0, 0.0]);
        assert_eq!(m.gb, vec![0.0, 0.0, 0.0]);
        assert_eq!(m.a, vec![1.0, 2.0]);
    }

    #[test]
    fn export_import_round_trip() {
        let mut m = TwoTensors::new();
        let mut flat = FlatGrads::new();
        flat.export_from(&mut m);
        assert_eq!(flat.as_slice(), &[0.1, 0.2, 0.3, 0.4, 0.5]);

        flat.scale(2.0);
        flat.import_into(&mut m);
        assert_eq!(m.ga, vec![0.2, 0.4]);
        assert_eq!(m.gb, vec![0.6, 0.8, 1.0]);
    }

    #[test]
    fn accumulate_and_scale_model_averaging() {
        let mut m = TwoTensors::new();
        let mut a = FlatGrads::new();
        a.export_from(&mut m);
        let mut sum = FlatGrads::new();
        sum.accumulate(&a);
        sum.accumulate(&a);
        // The same sum, straight from the model.
        let mut direct = FlatGrads::new();
        direct.accumulate_from(&mut m);
        direct.accumulate_from(&mut m);
        assert_eq!(direct.as_slice(), sum.as_slice());
        sum.scale(0.5);
        assert_eq!(sum.as_slice(), a.as_slice());
        assert_eq!(sum.len(), 5);
        assert!(!sum.is_empty());
    }

    #[test]
    fn flat_params_round_trip() {
        let mut m = TwoTensors::new();
        let mut p = FlatParams::new();
        p.export_from(&mut m);
        assert_eq!(p.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());

        let replacement = FlatParams::from_vec(vec![9.0, 8.0, 7.0, 6.0, 5.0]);
        replacement.import_into(&mut m);
        assert_eq!(m.a, vec![9.0, 8.0]);
        assert_eq!(m.b, vec![7.0, 6.0, 5.0]);
        assert_eq!(replacement.into_vec().len(), 5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn flat_params_wrong_length_panics() {
        let mut m = TwoTensors::new();
        FlatParams::from_vec(vec![0.0; 2]).import_into(&mut m);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn import_wrong_length_panics() {
        let mut m = TwoTensors::new();
        let mut flat = FlatGrads::new();
        flat.export_from(&mut m);
        flat.as_mut_slice(); // no-op, keep length
        let short = FlatGrads { buf: vec![0.0; 3] };
        short.import_into(&mut m);
    }
}
