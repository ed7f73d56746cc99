package core

import "testing"

func TestDimensionString(t *testing.T) {
	if DimBot.String() != "bot" || DimPhish.String() != "phish" {
		t.Error("dimension names wrong")
	}
	if Dimension(9).String() != "unknown" {
		t.Error("out-of-range dimension name")
	}
}
