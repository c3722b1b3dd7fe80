//go:build !race

package rtscts

const raceEnabled = false
