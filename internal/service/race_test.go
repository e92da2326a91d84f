//go:build race

package service

// warmSpeedupFloor is TestWarmShapeSpeedup's bound under the race detector.
// Instrumentation slows the cold search about 4x (1.1–1.3 s to 5.0–5.3 s on
// a 2-core host) but the warm instantiation about 14x, so the ratio reads
// 37–41x instead of 113–150x; 25 is the floor a real regression would have
// to cross there.
const warmSpeedupFloor = 25
