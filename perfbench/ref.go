package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
)

// refKeys is the reference kernel's input size: about 50 ms on one core of
// an Intel Xeon VM.
const refKeys = 1 << 16

// refRounds is how many kernel runs one reference time averages. A single
// run is short enough for one burst of a neighbour's load to skew it.
const refRounds = 4

// refNominalS is the reference kernel's CPU time per run on the Intel Xeon
// VM the benchmark was tuned on. setup_s is given in seconds on a host of
// that speed: each set-up's CPU time times refNominalS over its repeat's
// reference time.
const refNominalS = 0.06

// refChecksum is what refKernel returns on every call.
const refChecksum = 2147497453

// refNode is a node of the reference kernel's unbalanced search tree.
type refNode struct {
	left, right *refNode
	key         int
}

// refKernel is a fixed piece of work that exercises what the program's
// simulated runs spend their time on: small heap objects, pointer chasing,
// map operations and sorting. It is the benchmark's own code, never the
// program's, so a change to the program leaves it alone. On a shared VM the
// CPU's speed drifts by 10-40% over tens of seconds and the kernel slows
// with it, so a call's CPU time divided by the kernel's CPU time, taken
// moments before and after, measures the program's work without the
// host's drift. It returns the kernel's CPU time in seconds and a checksum
// that is the same on every call.
func refKernel() (float64, int) {
	start := cpuNow()
	rng := rand.New(rand.NewSource(1))
	index := make(map[int]int, 0)
	keys := make([]int, 0, refKeys)
	var root *refNode
	for i := 0; i < refKeys; i++ {
		k := rng.Intn(1 << 30)
		index[k] = i
		keys = append(keys, k)
		p := &root
		for *p != nil {
			if k < (*p).key {
				p = &(*p).left
			} else {
				p = &(*p).right
			}
		}
		*p = &refNode{key: k}
	}
	sort.Ints(keys)
	sum := 0
	for _, k := range keys {
		sum += index[k]
	}
	runtime.KeepAlive(root)
	return cpuNow() - start, sum
}

// refRun runs the reference kernel refRounds times and returns the mean
// time of one run in seconds. A wrong checksum is an error: the kernel did
// not do its fixed work.
func refRun() (float64, error) {
	total := 0.0
	for i := 0; i < refRounds; i++ {
		d, sum := refKernel()
		if sum != refChecksum {
			return 0, fmt.Errorf("reference kernel checksum %d, want %d", sum, refChecksum)
		}
		total += d
	}
	return total / refRounds, nil
}
