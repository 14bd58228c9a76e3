# A known deviation (DESIGN.md, "Known deviations from Tcl 8.6"), kept out
# of the oracle cases because TScript does not match it.  Found by
# test/test_tcl_diff.ml, minimised.  The list reader does not decode \a:
# tclsh 8.6 prints x, a bell (byte 7) and y; TScript prints "xay".
puts [lindex {x\ay} 0]
