//go:build !race

package service

// warmSpeedupFloor is TestWarmShapeSpeedup's bound: the ratio reads
// 113–150x on a 2-core host, and 50 is the floor a real regression would
// have to cross. race_test.go sets the bound under the race detector.
const warmSpeedupFloor = 50
