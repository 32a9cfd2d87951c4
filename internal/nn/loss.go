package nn

import (
	"fmt"
	"math"

	"calloc/internal/mat"
)

// SoftmaxCrossEntropy computes the mean cross-entropy between softmax(logits)
// and the integer class labels, and the gradient with respect to the logits.
// The softmax and the loss are fused for numerical stability, giving the
// familiar gradient (softmax − onehot)/batch.
func SoftmaxCrossEntropy(logits *mat.Matrix, labels []int) (float64, *mat.Matrix) {
	if logits.Rows != len(labels) {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy %d rows vs %d labels", logits.Rows, len(labels)))
	}
	grad := mat.New(logits.Rows, logits.Cols)
	var loss float64
	inv := 1 / float64(logits.Rows)
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		y := labels[i]
		if y < 0 || y >= logits.Cols {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, logits.Cols))
		}
		lse := mat.LogSumExp(row)
		loss += (lse - row[y]) * inv
		grow := grad.Row(i)
		for j, v := range row {
			grow[j] = math.Exp(v-lse) * inv
		}
		grow[y] -= inv
	}
	return loss, grad
}

// MSE computes the mean squared error between pred and target (averaged over
// all elements) and the gradient with respect to pred.
func MSE(pred, target *mat.Matrix) (float64, *mat.Matrix) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic(fmt.Sprintf("nn: MSE shape mismatch %dx%d vs %dx%d",
			pred.Rows, pred.Cols, target.Rows, target.Cols))
	}
	n := float64(len(pred.Data))
	grad := mat.New(pred.Rows, pred.Cols)
	var loss float64
	for i, v := range pred.Data {
		d := v - target.Data[i]
		loss += d * d / n
		grad.Data[i] = 2 * d / n
	}
	return loss, grad
}

// Accuracy returns the fraction of rows of logits whose argmax equals the
// label.
func Accuracy(logits *mat.Matrix, labels []int) float64 {
	if logits.Rows == 0 {
		return 0
	}
	var correct int
	for i := 0; i < logits.Rows; i++ {
		if mat.ArgMax(logits.Row(i)) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(logits.Rows)
}
