package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	if (square{side: 3}).onlyTested() != 3 {
		t.Fatal("side")
	}
}
