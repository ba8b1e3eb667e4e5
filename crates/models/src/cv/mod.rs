//! CV model builders: ResNet-50 and Inception-V3 (the Fig. 10 workloads).
//!
//! Both builders share a small convnet construction context that records
//! every op on an autograd [`crate::autodiff::Tape`], then emits the
//! full backward pass and the optimizer step.

pub mod inception;
pub mod resnet;

pub use inception::inception_v3;
pub use resnet::resnet50;

use dlperf_gpusim::MemcpyKind;
use dlperf_graph::{Graph, OpKind, TensorId, TensorMeta};

use crate::autodiff::Tape;

/// Channel/height/width of a feature map.
pub(crate) type Chw = (u64, u64, u64);

/// Shared construction state for convolutional models.
pub(crate) struct ConvNet {
    pub g: Graph,
    pub tape: Tape,
    pub b: u64,
    counter: usize,
}

impl ConvNet {
    /// Starts a convnet graph with an H2D input copy of a
    /// `b × c × h × w` image batch. Returns the device-side input tensor.
    pub fn new(name: &str, b: u64, input: Chw) -> (Self, TensorId) {
        let mut g = Graph::new(name);
        let (c, h, w) = input;
        let cpu = g.add_tensor(TensorMeta::activation(&[b, c, h, w]).with_batch_dim(0));
        let dev = g.add_tensor(TensorMeta::activation(&[b, c, h, w]).with_batch_dim(0));
        g.add_node(
            "input::to",
            OpKind::To {
                kind: MemcpyKind::HostToDevice,
            },
            vec![cpu],
            vec![dev],
        );
        (
            ConvNet {
                g,
                tape: Tape::new(),
                b,
                counter: 0,
            },
            dev,
        )
    }

    fn fresh(&mut self, tag: &str) -> String {
        self.counter += 1;
        format!("{tag}_{}", self.counter)
    }

    /// Activation tensor of shape `b × c × h × w`.
    pub fn act(&mut self, chw: Chw) -> TensorId {
        let (c, h, w) = chw;
        self.g
            .add_tensor(TensorMeta::activation(&[self.b, c, h, w]).with_batch_dim(0))
    }

    /// conv → batch-norm → (optional) ReLU. Returns the output tensor and
    /// its shape.
    #[allow(clippy::too_many_arguments)]
    pub fn conv_bn(
        &mut self,
        x: TensorId,
        in_chw: Chw,
        c_out: u64,
        kh: u64,
        kw: u64,
        stride: u64,
        pad: u64,
        relu: bool,
    ) -> (TensorId, Chw) {
        let (c_in, h, w) = in_chw;
        let (oh, ow) = dlperf_gpusim::conv::conv_out_hw(h, w, kh, kw, stride, pad);
        let weight = self
            .g
            .add_tensor(TensorMeta::weight(&[c_out, c_in, kh, kw]));
        let conv_out = self.act((c_out, oh, ow));
        let name = self.fresh("conv2d");
        self.tape
            .conv(&mut self.g, &name, x, weight, conv_out, stride, pad);

        let bn_out = self.act((c_out, oh, ow));
        let name = self.fresh("batch_norm");
        self.tape.unary(
            &mut self.g,
            &name,
            OpKind::BatchNorm,
            OpKind::BatchNormBackward,
            conv_out,
            bn_out,
            vec![conv_out],
        );
        if !relu {
            return (bn_out, (c_out, oh, ow));
        }
        let relu_out = self.act((c_out, oh, ow));
        let name = self.fresh("relu");
        self.tape.unary(
            &mut self.g,
            &name,
            OpKind::Relu,
            OpKind::ReluBackward,
            bn_out,
            relu_out,
            vec![relu_out],
        );
        (relu_out, (c_out, oh, ow))
    }

    /// Max pooling.
    pub fn max_pool(
        &mut self,
        x: TensorId,
        in_chw: Chw,
        k: u64,
        stride: u64,
        pad: u64,
    ) -> (TensorId, Chw) {
        let (c, h, w) = in_chw;
        let (oh, ow) = dlperf_gpusim::conv::conv_out_hw(h, w, k, k, stride, pad);
        let y = self.act((c, oh, ow));
        let name = self.fresh("max_pool2d");
        self.tape.unary(
            &mut self.g,
            &name,
            OpKind::MaxPool { k, stride },
            OpKind::MaxPoolBackward,
            x,
            y,
            vec![x],
        );
        (y, (c, oh, ow))
    }

    /// 3×3 stride-1 average pooling that keeps the spatial size (the
    /// Inception "pool" branch).
    pub fn avg_pool_same(&mut self, x: TensorId, in_chw: Chw) -> (TensorId, Chw) {
        let y = self.act(in_chw);
        let name = self.fresh("avg_pool2d");
        self.tape.unary(
            &mut self.g,
            &name,
            OpKind::AvgPool,
            OpKind::AvgPool,
            x,
            y,
            vec![],
        );
        (y, in_chw)
    }

    /// Concatenates feature maps along the channel dimension.
    pub fn cat_channels(&mut self, parts: Vec<(TensorId, Chw)>) -> (TensorId, Chw) {
        let (_, h, w) = parts[0].1;
        debug_assert!(parts.iter().all(|(_, (_, ph, pw))| *ph == h && *pw == w));
        let c: u64 = parts.iter().map(|(_, (pc, _, _))| pc).sum();
        let y = self.act((c, h, w));
        let xs: Vec<TensorId> = parts.iter().map(|(t, _)| *t).collect();
        let name = self.fresh("cat");
        self.tape.cat(&mut self.g, &name, xs, y, 1);
        (y, (c, h, w))
    }

    /// Global average pool + flatten + FC classifier + softmax + MSE loss,
    /// then the full backward pass and the optimizer step. Consumes the
    /// builder and returns the finished graph.
    pub fn finish_classifier(mut self, x: TensorId, in_chw: Chw, classes: u64) -> Graph {
        let (c, _, _) = in_chw;
        let pooled = self.act((c, 1, 1));
        let name = self.fresh("avg_pool2d");
        self.tape.unary(
            &mut self.g,
            &name,
            OpKind::AvgPool,
            OpKind::AvgPool,
            x,
            pooled,
            vec![],
        );
        let flat = self
            .g
            .add_tensor(TensorMeta::activation(&[self.b, c]).with_batch_dim(0));
        self.tape.reshape(&mut self.g, "flatten", pooled, flat);

        let w = self.g.add_tensor(TensorMeta::weight(&[classes, c]));
        let bias = self.g.add_tensor(TensorMeta::weight(&[classes]));
        let logits = self
            .g
            .add_tensor(TensorMeta::activation(&[self.b, classes]).with_batch_dim(0));
        self.tape.linear(&mut self.g, "fc", flat, w, bias, logits);

        let probs = self
            .g
            .add_tensor(TensorMeta::activation(&[self.b, classes]).with_batch_dim(0));
        self.tape.unary(
            &mut self.g,
            "softmax",
            OpKind::Softmax,
            OpKind::SoftmaxBackward,
            logits,
            probs,
            vec![probs],
        );

        let labels = self
            .g
            .add_tensor(TensorMeta::activation(&[self.b, classes]).with_batch_dim(0));
        let loss = self.g.add_tensor(TensorMeta::activation(&[]));
        self.g.add_node(
            "loss::mse_loss",
            OpKind::MseLoss,
            vec![probs, labels],
            vec![loss],
        );
        let g_probs = self
            .g
            .add_tensor(TensorMeta::activation(&[self.b, classes]).with_batch_dim(0));
        self.g.add_node(
            "loss::mse_loss_backward",
            OpKind::MseLossBackward,
            vec![loss, probs, labels],
            vec![g_probs],
        );

        let mut param_grads = Vec::new();
        self.tape
            .backward(&mut self.g, (probs, g_probs), &mut param_grads);
        self.g.add_node(
            "optimizer::step",
            OpKind::OptimizerStep,
            param_grads,
            vec![],
        );

        debug_assert_eq!(self.g.validate(), Ok(()));
        self.g
    }
}
