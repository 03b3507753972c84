package ml

import "fmt"

// Confusion is a binary confusion matrix (positive class = 1 = DDoS).
type Confusion struct {
	TP, TN, FP, FN int
}

// Confuse tallies predictions against truth.
func Confuse(yTrue, yPred []int) Confusion {
	var c Confusion
	for i := range yTrue {
		switch {
		case yTrue[i] == 1 && yPred[i] == 1:
			c.TP++
		case yTrue[i] == 0 && yPred[i] == 0:
			c.TN++
		case yTrue[i] == 0 && yPred[i] == 1:
			c.FP++
		default:
			c.FN++
		}
	}
	return c
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// TPR returns the true positive rate (recall).
func (c Confusion) TPR() float64 { return ratio(c.TP, c.TP+c.FN) }

// TNR returns the true negative rate.
func (c Confusion) TNR() float64 { return ratio(c.TN, c.TN+c.FP) }

// FPR returns the false positive rate.
func (c Confusion) FPR() float64 { return ratio(c.FP, c.FP+c.TN) }

// FNR returns the false negative rate.
func (c Confusion) FNR() float64 { return ratio(c.FN, c.FN+c.TP) }

// F1 returns the harmonic mean of precision and recall, computed as in the
// paper: tp / (tp + (fp+fn)/2).
func (c Confusion) F1() float64 {
	den := float64(c.TP) + 0.5*float64(c.FP+c.FN)
	if den == 0 {
		return 0
	}
	return float64(c.TP) / den
}

// FBeta returns the Fβ score; the paper uses β = 0.5 to weight false
// positives more heavily than false negatives:
// Fβ = (1+β²)·tp / ((1+β²)·tp + β²·fn + fp).
func (c Confusion) FBeta(beta float64) float64 {
	b2 := beta * beta
	den := (1+b2)*float64(c.TP) + b2*float64(c.FN) + float64(c.FP)
	if den == 0 {
		return 0
	}
	return (1 + b2) * float64(c.TP) / den
}

// String renders the matrix with headline scores.
func (c Confusion) String() string {
	return fmt.Sprintf("tp=%d tn=%d fp=%d fn=%d F1=%.3f Fβ=0.5=%.3f",
		c.TP, c.TN, c.FP, c.FN, c.F1(), c.FBeta(0.5))
}
