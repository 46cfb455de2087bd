(define amb-tag (make-continuation-prompt-tag 'amb))

(define (count-choose lst)
  (call-with-composable-continuation
   (lambda (k)
     (abort-current-continuation amb-tag
       (lambda ()
         (let loop ([l lst] [acc 0])
           (if (null? l)
               acc
               (loop (cdr l)
                     (+ acc (call-with-continuation-prompt
                             (lambda () (k (car l)))
                             amb-tag (lambda (t) (t))))))))))
   amb-tag))

(define (iota-list lo hi)
  (if (>= lo hi) '() (cons lo (iota-list (+ lo 1) hi))))

(define (queen-safe? c cols)
  (let loop ([cs cols] [d 1])
    (if (null? cs)
        #t
        (if (or (= (car cs) c)
                (= (car cs) (+ c d))
                (= (car cs) (- c d)))
            #f
            (loop (cdr cs) (+ d 1))))))

(define (queens n)
  (call-with-continuation-prompt
   (lambda ()
     (let place ([row 0] [cols '()])
       (if (= row n)
           1
           (let ([c (count-choose (iota-list 0 n))])
             (if (queen-safe? c cols)
                 (place (+ row 1) (cons c cols))
                 0)))))
   amb-tag (lambda (t) (t))))

;; Sized entry: k searches of the 5-queens board, so an op's cost can be
;; matched to the other programs'.
(define (queens-rounds k)
  (let loop ([i 0] [acc 0])
    (if (= i k) acc (loop (+ i 1) (+ acc (queens 5))))))
