package harness

import "testing"

// Golden-shape regression tests: every qualitative claim EXPERIMENTS.md
// reports as "reproduced" holds on the reports the parallel engine produces
// at -j 8, so a change that breaks the reproduction only under parallel
// scheduling fails loudly. Each claim is the one predicate harness_test.go
// checks on the serial run; the -j 8 run is shared with
// TestParallelReportsMatchSerial.

const goldenWorkers = 8

func TestGoldenFig11STMCrossesLockBy16(t *testing.T) { claimFig11(t, goldenWorkers) }

func TestGoldenFig12RdBarLargestBucket(t *testing.T) { claimFig12(t, goldenWorkers) }

func TestGoldenFig13LoadHeavyCriticalSections(t *testing.T) { claimFig13(t, goldenWorkers) }

func TestGoldenFig15AcceleratedSchemesBeatSTM(t *testing.T) { claimFig15(t, goldenWorkers) }

func TestGoldenFig16HASTMComparableToHyTM(t *testing.T) { claimFig16(t, goldenWorkers) }

func TestGoldenFig17CautiousNoWinOnHashtable(t *testing.T) { claimFig17(t, goldenWorkers) }

func TestGoldenMulticoreScaling(t *testing.T) { claimMulticoreScaling(t, goldenWorkers) }

func TestGoldenNaiveAggressiveCollapse(t *testing.T) {
	claimNaiveAggressiveCollapse(t, goldenWorkers)
}

func TestGoldenExtensions(t *testing.T) {
	claimExtInterAtomic(t, goldenWorkers)
	claimExtGranularity(t, goldenWorkers)
	claimExtWFilter(t, goldenWorkers)
}
