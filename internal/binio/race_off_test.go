//go:build !race

package binio

const raceEnabled = false
