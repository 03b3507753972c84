package main

import (
	"fmt"

	"example.com/reachfix/lib"
)

func main() { fmt.Println(lib.Shape{Sides: 3}) }
